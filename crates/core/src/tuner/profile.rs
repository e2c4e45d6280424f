//! Persistent tuning profiles: versioned JSON that round-trips bit for bit.
//!
//! A [`TuningProfile`] is the autotuner's durable memory: one
//! [`ProfileEntry`] per tuned `(m, n, P, threads)` key, recording the
//! winning configuration and its predicted/measured seconds. Profiles are
//! written with the deterministic serializer in [`super::json`] — entries
//! kept sorted, fields in a fixed order, floats in shortest-round-trip
//! form — so saving a profile twice produces byte-identical files and
//! `from_json(to_json(p)) == p` exactly. A `version` field gates the
//! format: readers reject documents written by an incompatible build
//! instead of misinterpreting them.
//!
//! Profiles preload into a [`QrService`](crate::service::QrService) via
//! [`preload_profile`](crate::service::QrService::preload_profile), which
//! builds and caches the recorded plans up front so the first request of a
//! known shape never pays planning or tuning.

use super::error::TunerError;
use super::json::{self, JsonValue};
use crate::driver::{validate, Algorithm, PlanError};
use crate::service::JobSpec;
use baseline::BlockCyclic;
use costmodel::CandidateConfig;
use dense::BackendKind;
use pargrid::GridShape;

/// The profile format version this build writes and reads.
///
/// Version history: 1 — entries only; 2 — adds the top-level `probes`
/// object carrying the calibration gemm and Gram-kernel (syrk) rates.
///
/// v1 documents are deliberately rejected rather than upgraded in place:
/// their `measured_seconds` were recorded against the pre-symmetry-aware
/// Gram kernel (≈1.7× slower on the CholeskyQR hot path), so carrying the
/// old winners forward would pin stale rankings exactly where the kernel
/// change moved the optimum. A version mismatch is a re-tune
/// (`examples/autotune.rs` shows the calibrate-and-save loop).
pub const PROFILE_VERSION: u64 = 2;

/// One tuned configuration: the key it was tuned for and the winning config.
///
/// On disk the config is spelled as the knobs of the [`JobSpec`] that asks
/// for it (`algorithm`, `grid`, `block_cyclic`, `base_size`,
/// `inverse_depth`, with `null` for the knobs the algorithm does not use).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProfileEntry {
    /// Global row count of the tuned shape.
    pub m: usize,
    /// Global column count of the tuned shape.
    pub n: usize,
    /// Simulated rank count the tuning searched.
    pub processors: usize,
    /// Process thread budget the tuning ran under (`dense::max_threads`).
    pub threads: usize,
    /// The winning algorithm and its schedule knobs.
    pub config: CandidateConfig,
    /// The winning kernel backend.
    pub backend: BackendKind,
    /// Cost-model-predicted seconds for the winner.
    pub predicted_seconds: f64,
    /// Measured calibration seconds for the winner, when the tuning ran
    /// live calibration.
    pub measured_seconds: Option<f64>,
}

impl ProfileEntry {
    /// The cache key this entry was tuned for.
    pub fn key(&self) -> (usize, usize, usize, usize) {
        (self.m, self.n, self.processors, self.threads)
    }

    /// The [`JobSpec`] that asks for this entry's config, validated for its
    /// shape (a hand-edited profile can name an unrunnable config; that
    /// surfaces as a typed [`PlanError`], never a panic).
    pub fn spec(&self) -> Result<JobSpec, PlanError> {
        validate(self.m, self.n, &self.config)?;
        Ok(JobSpec::from_config(self.m, self.n, &self.config).backend(self.backend))
    }

    fn to_json(self) -> JsonValue {
        let num = |v: usize| JsonValue::Number(v as f64);
        let object = |fields: &[(&str, usize)]| {
            JsonValue::Object(fields.iter().map(|&(k, v)| (k.to_string(), num(v))).collect())
        };
        let knobs = JobSpec::from_config(self.m, self.n, &self.config);
        JsonValue::Object(vec![
            ("m".to_string(), num(self.m)),
            ("n".to_string(), num(self.n)),
            ("processors".to_string(), num(self.processors)),
            ("threads".to_string(), num(self.threads)),
            (
                "algorithm".to_string(),
                JsonValue::String(knobs.algorithm.name().to_string()),
            ),
            ("backend".to_string(), JsonValue::String(self.backend.to_string())),
            (
                "grid".to_string(),
                knobs
                    .grid
                    .map_or(JsonValue::Null, |g| object(&[("c", g.c), ("d", g.d)])),
            ),
            (
                "block_cyclic".to_string(),
                knobs
                    .block_cyclic
                    .map_or(JsonValue::Null, |b| object(&[("pr", b.pr), ("pc", b.pc), ("nb", b.nb)])),
            ),
            ("base_size".to_string(), knobs.base_size.map_or(JsonValue::Null, num)),
            ("inverse_depth".to_string(), num(knobs.inverse_depth)),
            (
                "predicted_seconds".to_string(),
                JsonValue::Number(self.predicted_seconds),
            ),
            (
                "measured_seconds".to_string(),
                self.measured_seconds.map_or(JsonValue::Null, JsonValue::Number),
            ),
        ])
    }

    fn from_json(value: &JsonValue) -> Result<ProfileEntry, TunerError> {
        let field = |key: &str| {
            value.get(key).ok_or_else(|| TunerError::ProfileSchema {
                message: format!("entry is missing {key:?}"),
            })
        };
        let num = |key: &str| {
            field(key)?.as_usize().ok_or_else(|| TunerError::ProfileSchema {
                message: format!("entry field {key:?} must be a non-negative integer"),
            })
        };
        // An optional object of integer fields: `null`, or all of `keys`.
        let opt_object = |key: &str, keys: &[&str]| -> Result<Option<Vec<usize>>, TunerError> {
            match field(key)? {
                JsonValue::Null => Ok(None),
                v => keys
                    .iter()
                    .map(|k| {
                        v.get(k)
                            .and_then(JsonValue::as_usize)
                            .ok_or_else(|| TunerError::ProfileSchema {
                                message: format!("entry field {key:?} must carry integer {k:?}"),
                            })
                    })
                    .collect::<Result<Vec<usize>, TunerError>>()
                    .map(Some),
            }
        };
        let algorithm_name = field("algorithm")?.as_str().ok_or_else(|| TunerError::ProfileSchema {
            message: "entry field \"algorithm\" must be a string".to_string(),
        })?;
        let algorithm = algorithm_name
            .parse::<Algorithm>()
            .map_err(|e| TunerError::ProfileSchema { message: e })?;
        let backend_name = field("backend")?.as_str().ok_or_else(|| TunerError::ProfileSchema {
            message: "entry field \"backend\" must be a string".to_string(),
        })?;
        let backend = backend_name
            .parse::<BackendKind>()
            .map_err(|e| TunerError::ProfileSchema { message: e })?;
        let base_size = match field("base_size")? {
            JsonValue::Null => None,
            v => Some(v.as_usize().ok_or_else(|| TunerError::ProfileSchema {
                message: "entry field \"base_size\" must be an integer or null".to_string(),
            })?),
        };
        let predicted_seconds = field("predicted_seconds")?
            .as_f64()
            .ok_or_else(|| TunerError::ProfileSchema {
                message: "entry field \"predicted_seconds\" must be a number".to_string(),
            })?;
        let measured_seconds = match field("measured_seconds")? {
            JsonValue::Null => None,
            v => Some(v.as_f64().ok_or_else(|| TunerError::ProfileSchema {
                message: "entry field \"measured_seconds\" must be a number or null".to_string(),
            })?),
        };
        let (m, n) = (num("m")?, num("n")?);
        // The recorded knobs resolve into the config exactly as a plan
        // builder's would.
        let grid = opt_object("grid", &["c", "d"])?
            .map(|v| GridShape::new(v[0], v[1]))
            .transpose()
            .map_err(|e| TunerError::ProfileSchema {
                message: format!("entry field \"grid\": {e}"),
            })?;
        let knobs = JobSpec {
            algorithm,
            grid,
            block_cyclic: opt_object("block_cyclic", &["pr", "pc", "nb"])?.map(|v| BlockCyclic {
                pr: v[0],
                pc: v[1],
                nb: v[2],
            }),
            base_size,
            inverse_depth: num("inverse_depth")?,
            ..JobSpec::new(m, n)
        };
        let config = knobs.resolve().map_err(|e| TunerError::ProfileSchema {
            message: format!("entry does not name a configuration: {e}"),
        })?;
        Ok(ProfileEntry {
            m,
            n,
            processors: num("processors")?,
            threads: num("threads")?,
            config,
            backend,
            predicted_seconds,
            measured_seconds,
        })
    }
}

/// A persistent set of tuned configurations: versioned, canonical JSON
/// that round-trips bit for bit (see the `tuner` module docs).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TuningProfile {
    entries: Vec<ProfileEntry>,
    /// Measured calibration gemm rate (seconds per ledger flop) on the
    /// machine this profile was recorded on, when calibration ran.
    pub probe_gemm_seconds_per_flop: Option<f64>,
    /// Measured calibration Gram-kernel (syrk) rate — seconds per *ledger*
    /// flop (`m·n²`), so the symmetry-aware kernel's ≈2× advantage over the
    /// naive sweep shows up as a faster rate, not a different count.
    pub probe_syrk_seconds_per_flop: Option<f64>,
}

impl TuningProfile {
    /// An empty profile.
    pub fn new() -> TuningProfile {
        TuningProfile::default()
    }

    /// Number of tuned entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the profile holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries, sorted by `(m, n, processors, threads)`.
    pub fn entries(&self) -> &[ProfileEntry] {
        &self.entries
    }

    /// Inserts an entry, replacing any existing entry with the same
    /// `(m, n, processors, threads)` key; keeps the sort order that makes
    /// serialization deterministic.
    pub fn insert(&mut self, entry: ProfileEntry) {
        match self.entries.binary_search_by_key(&entry.key(), ProfileEntry::key) {
            Ok(i) => self.entries[i] = entry,
            Err(i) => self.entries.insert(i, entry),
        }
    }

    /// The entry tuned for exactly `(m, n, processors, threads)`.
    pub fn lookup_exact(&self, m: usize, n: usize, processors: usize, threads: usize) -> Option<&ProfileEntry> {
        self.entries
            .binary_search_by_key(&(m, n, processors, threads), ProfileEntry::key)
            .ok()
            .map(|i| &self.entries[i])
    }

    /// The first entry for shape `(m, n)` under any rank count or thread
    /// budget (entries are sorted, so this is the smallest such key).
    pub fn lookup(&self, m: usize, n: usize) -> Option<&ProfileEntry> {
        self.entries.iter().find(|e| e.m == m && e.n == n)
    }

    /// Serializes to the versioned JSON format (pretty-printed, canonical:
    /// equal profiles serialize to identical bytes).
    pub fn to_json(&self) -> String {
        let opt_num = |v: Option<f64>| match v {
            Some(x) => JsonValue::Number(x),
            None => JsonValue::Null,
        };
        JsonValue::Object(vec![
            ("version".to_string(), JsonValue::Number(PROFILE_VERSION as f64)),
            (
                "probes".to_string(),
                JsonValue::Object(vec![
                    (
                        "gemm_seconds_per_flop".to_string(),
                        opt_num(self.probe_gemm_seconds_per_flop),
                    ),
                    (
                        "syrk_seconds_per_flop".to_string(),
                        opt_num(self.probe_syrk_seconds_per_flop),
                    ),
                ]),
            ),
            (
                "entries".to_string(),
                JsonValue::Array(self.entries.iter().copied().map(ProfileEntry::to_json).collect()),
            ),
        ])
        .to_pretty()
    }

    /// Parses a profile, rejecting unknown versions and malformed entries
    /// with a typed [`TunerError`].
    pub fn from_json(text: &str) -> Result<TuningProfile, TunerError> {
        let doc = json::parse(text)?;
        let version = doc
            .get("version")
            .and_then(JsonValue::as_usize)
            .ok_or_else(|| TunerError::ProfileSchema {
                message: "document must carry an integer \"version\"".to_string(),
            })? as u64;
        if version != PROFILE_VERSION {
            return Err(TunerError::ProfileVersionMismatch {
                found: version,
                expected: PROFILE_VERSION,
            });
        }
        let entries = doc
            .get("entries")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| TunerError::ProfileSchema {
                message: "document must carry an \"entries\" array".to_string(),
            })?;
        let probes = doc.get("probes").ok_or_else(|| TunerError::ProfileSchema {
            message: "document must carry a \"probes\" object".to_string(),
        })?;
        let opt_rate = |key: &str| -> Result<Option<f64>, TunerError> {
            match probes.get(key) {
                Some(JsonValue::Null) => Ok(None),
                Some(v) => Ok(Some(v.as_f64().ok_or_else(|| TunerError::ProfileSchema {
                    message: format!("probe field {key:?} must be a number or null"),
                })?)),
                None => Err(TunerError::ProfileSchema {
                    message: format!("\"probes\" object is missing {key:?}"),
                }),
            }
        };
        let mut profile = TuningProfile::new();
        profile.probe_gemm_seconds_per_flop = opt_rate("gemm_seconds_per_flop")?;
        profile.probe_syrk_seconds_per_flop = opt_rate("syrk_seconds_per_flop")?;
        for entry in entries {
            profile.insert(ProfileEntry::from_json(entry)?);
        }
        Ok(profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entry() -> ProfileEntry {
        ProfileEntry {
            m: 4096,
            n: 64,
            processors: 16,
            threads: 4,
            config: CandidateConfig::CaCqr2 {
                c: 2,
                d: 4,
                base_size: 16,
                inverse_depth: 0,
            },
            backend: BackendKind::Blocked,
            predicted_seconds: 1.0 / 3.0,
            measured_seconds: Some(2.5e-4),
        }
    }

    #[test]
    #[allow(clippy::excessive_precision)] // the awkward float is the point
    fn json_round_trip_is_bit_identical() {
        let mut profile = TuningProfile::new();
        profile.probe_gemm_seconds_per_flop = Some(2.9387358770557188e-11);
        profile.probe_syrk_seconds_per_flop = Some(1.4693679385278594e-11);
        profile.insert(sample_entry());
        profile.insert(ProfileEntry {
            m: 512,
            n: 512,
            config: CandidateConfig::Pgeqrf { pr: 8, pc: 2, nb: 32 },
            measured_seconds: None,
            predicted_seconds: 7.000000000000001e-2,
            ..sample_entry()
        });
        let text = profile.to_json();
        let back = TuningProfile::from_json(&text).unwrap();
        assert_eq!(back, profile);
        assert_eq!(back.to_json(), text, "serialization must be canonical");
    }

    #[test]
    fn insert_replaces_same_key_and_sorts() {
        let mut profile = TuningProfile::new();
        profile.insert(sample_entry());
        profile.insert(ProfileEntry {
            m: 64,
            ..sample_entry()
        });
        profile.insert(ProfileEntry {
            backend: BackendKind::Naive,
            ..sample_entry()
        });
        assert_eq!(profile.len(), 2);
        assert_eq!(profile.entries()[0].m, 64, "entries stay sorted");
        assert_eq!(
            profile.lookup_exact(4096, 64, 16, 4).unwrap().backend,
            BackendKind::Naive,
            "same key replaces"
        );
        assert!(profile.lookup(4096, 64).is_some());
        assert!(profile.lookup(1, 1).is_none());
    }

    #[test]
    fn version_gate_rejects_future_formats() {
        let err = TuningProfile::from_json("{\"version\": 999, \"entries\": []}").unwrap_err();
        assert_eq!(
            err,
            TunerError::ProfileVersionMismatch {
                found: 999,
                expected: PROFILE_VERSION
            }
        );
    }

    #[test]
    fn version_gate_rejects_v1_documents() {
        // v1 predates the probes object; readers must refuse rather than
        // silently invent rates.
        let err = TuningProfile::from_json("{\"version\": 1, \"entries\": []}").unwrap_err();
        assert_eq!(
            err,
            TunerError::ProfileVersionMismatch {
                found: 1,
                expected: PROFILE_VERSION
            }
        );
    }

    #[test]
    fn empty_profile_round_trips_with_null_probes() {
        let profile = TuningProfile::new();
        let text = profile.to_json();
        assert!(text.contains("\"gemm_seconds_per_flop\": null"));
        assert!(text.contains("\"syrk_seconds_per_flop\": null"));
        assert_eq!(TuningProfile::from_json(&text).unwrap(), profile);
    }

    #[test]
    fn schema_violations_are_typed() {
        assert!(matches!(
            TuningProfile::from_json("{\"entries\": []}"),
            Err(TunerError::ProfileSchema { .. })
        ));
        assert!(matches!(
            TuningProfile::from_json("not json"),
            Err(TunerError::ProfileParse(_))
        ));
        let missing_probes = "{\"version\":2,\"entries\":[]}";
        assert!(matches!(
            TuningProfile::from_json(missing_probes),
            Err(TunerError::ProfileSchema { .. })
        ));
        let missing_field =
            "{\"version\":2,\"probes\":{\"gemm_seconds_per_flop\":null,\"syrk_seconds_per_flop\":null},\"entries\":[{\"m\":4}]}";
        assert!(matches!(
            TuningProfile::from_json(missing_field),
            Err(TunerError::ProfileSchema { .. })
        ));
    }

    #[test]
    fn entries_rebuild_their_specs() {
        let spec = sample_entry().spec().unwrap();
        assert_eq!(spec.m(), 4096);
        assert_eq!(spec.n(), 64);
        // An invalid hand-edited grid surfaces as a typed error.
        let bad = ProfileEntry {
            config: CandidateConfig::CaCqr2 {
                c: 3,
                d: 4,
                base_size: 16,
                inverse_depth: 0,
            },
            ..sample_entry()
        };
        assert!(matches!(bad.spec(), Err(PlanError::Grid(_))));
    }
}
