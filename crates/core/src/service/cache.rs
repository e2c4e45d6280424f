//! The plan cache: one keyed map `JobSpec → Arc<QrPlan>` behind one
//! `RwLock`, so repeat shapes never rebuild or revalidate and concurrent
//! hits share the read lock.

use super::spec::JobSpec;
use super::{QrService, ServiceError};
use crate::driver::{PlanError, QrPlan};
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// The cached plans, plus the memoized cost-model tuning results behind
/// [`QrService::plan_auto`]: shape → winning spec, so repeat shapes skip
/// re-enumeration.
#[derive(Default)]
pub(super) struct PlanCache {
    plans: RwLock<HashMap<JobSpec, Arc<QrPlan>>>,
    auto_specs: RwLock<HashMap<(usize, usize), JobSpec>>,
}

impl QrService {
    /// Number of distinct plans currently cached.
    pub fn plan_cache_len(&self) -> usize {
        self.shared.cache.plans.read().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Evicts the cached plan for `spec`, returning whether one was
    /// cached. Jobs already holding the `Arc<QrPlan>` keep running — the
    /// plan is dropped when the last holder finishes — so eviction bounds
    /// the cache without invalidating in-flight work.
    pub fn evict(&self, spec: &JobSpec) -> bool {
        let mut plans = self.shared.cache.plans.write().unwrap_or_else(|e| e.into_inner());
        plans.remove(spec).is_some()
    }

    /// Resolves the plan for `(m, n)` by autotuning: the
    /// [`Tuner`](crate::tuner::Tuner) picks the configuration
    /// (cost-model-only, so this is cheap and deterministic, and the same
    /// pick as [`QrPlan::auto`]), and the winning spec becomes the cache
    /// key — repeat shapes reuse the tuned plan without re-tuning
    /// validation.
    pub fn plan_auto(&self, m: usize, n: usize) -> Result<Arc<QrPlan>, ServiceError> {
        // Cost-model tuning is deterministic per shape, so memoize the
        // winning spec: repeat shapes skip re-enumeration entirely.
        let auto_specs = &self.shared.cache.auto_specs;
        if let Some(spec) = auto_specs.read().unwrap_or_else(|e| e.into_inner()).get(&(m, n)) {
            return self.plan(spec);
        }
        let report = crate::tuner::Tuner::new(m, n).report().map_err(PlanError::from)?;
        let spec = report.best_spec();
        auto_specs
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert((m, n), spec);
        self.plan(&spec)
    }

    /// Resolves (building and caching on first use) the plan for `spec`.
    ///
    /// Equal specs return pointer-equal `Arc<QrPlan>`s for the lifetime of
    /// the service; repeat shapes never pay validation again. A hit takes
    /// the read lock only; a miss re-checks under the write lock, so racing
    /// builders of one spec agree on a single plan.
    pub fn plan(&self, spec: &JobSpec) -> Result<Arc<QrPlan>, ServiceError> {
        let shared = &self.shared;
        let plans = &shared.cache.plans;
        if let Some(plan) = plans.read().unwrap_or_else(|e| e.into_inner()).get(spec) {
            return Ok(Arc::clone(plan));
        }
        let mut cache = plans.write().unwrap_or_else(|e| e.into_inner());
        if let Some(plan) = cache.get(spec) {
            return Ok(Arc::clone(plan)); // lost the build race: reuse the winner
        }
        let plan = Arc::new(spec.build_plan(shared.machine, shared.runtime)?);
        cache.insert(*spec, Arc::clone(&plan));
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use crate::service::tests::spec_64x16;
    use crate::service::{JobSpec, QrService};
    use pargrid::GridShape;
    use std::sync::Arc;

    #[test]
    fn cache_is_pointer_stable_per_key() {
        let service = QrService::builder().workers(1).build();
        let spec = spec_64x16();
        let p1 = service.plan(&spec).unwrap();
        let p2 = service.plan(&spec).unwrap();
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!(service.plan_cache_len(), 1);
        // A different base size is a different plan.
        let p3 = service.plan(&spec.base_size(8)).unwrap();
        assert!(!Arc::ptr_eq(&p1, &p3));
        assert_eq!(service.plan_cache_len(), 2);
    }

    #[test]
    fn cache_counts_and_evicts_every_distinct_spec() {
        let service = QrService::builder().workers(1).build();
        // len() must see every distinct shape and evict() must find each.
        let specs: Vec<_> = (0..24)
            .map(|i| JobSpec::new(64 * (i + 1), 16).grid(GridShape::new(2, 2).unwrap()))
            .collect();
        for s in &specs {
            service.plan(s).unwrap();
        }
        assert_eq!(service.plan_cache_len(), 24);
        for s in &specs {
            assert!(service.evict(s));
        }
        assert_eq!(service.plan_cache_len(), 0);
        assert!(!service.evict(&specs[0]), "evicting twice finds nothing");
    }

    #[test]
    fn spec_level_retry_policy_is_part_of_the_cache_key() {
        let service = QrService::builder().workers(1).build();
        let base = spec_64x16();
        let escalating = base.retry(crate::RetryPolicy::escalate());
        let p1 = service.plan(&base).unwrap();
        let p2 = service.plan(&escalating).unwrap();
        assert!(!Arc::ptr_eq(&p1, &p2), "policies cache separate plans");
        assert_eq!(service.plan_cache_len(), 2);
        assert!(p2.retry_policy().is_enabled());
        // Jobs through the escalating spec recover without any per-job
        // options.
        let hard = dense::random::matrix_with_condition(64, 16, 1e9, 41);
        let report = service.submit(&escalating, hard).unwrap().wait().unwrap();
        assert!(report.escalation.expect("recorded").escalated());
    }
}
