//! The simulator-level error hierarchy.
//!
//! Every fallible construction or checked-run path in the workspace
//! funnels into [`CrowError`], so binaries can print one diagnostic and
//! exit instead of unwinding with a backtrace.

use crow_cpu::TraceError;
use crow_dram::ConfigError;
use crow_mem::McError;

/// Anything that can go wrong building or running a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrowError {
    /// A configuration failed validation before the system was built.
    Config(ConfigError),
    /// A memory controller could not be constructed.
    Controller(McError),
    /// An instruction trace was empty or ran dry.
    Trace(TraceError),
    /// The shadow protocol validator recorded violations during
    /// [`crate::System::run_checked`].
    Protocol {
        /// Total violations across all channels.
        violations: u64,
        /// The first recorded violation, formatted (None if all were
        /// dropped by the storage cap).
        first: Option<String>,
    },
    /// A campaign result journal could not be read or written.
    Journal {
        /// The journal file involved.
        path: String,
        /// What went wrong (I/O error text or format diagnosis).
        reason: String,
    },
    /// A simulation-service request failed strict validation (malformed
    /// JSON, unknown or duplicate keys, out-of-range values). The server
    /// answers with a structured error response; it never panics and
    /// never substitutes a silent default.
    Request {
        /// What the validator rejected.
        reason: String,
    },
    /// A request was refused because its fingerprint's circuit breaker
    /// is open: K consecutive child crashes/kills mark the job as
    /// poison, and duplicates are quarantined for the cooldown instead
    /// of re-running it.
    Quarantined {
        /// The poisoned job fingerprint.
        fingerprint: String,
        /// Conservative wait before a retry can be admitted.
        retry_after_ms: u64,
    },
    /// A supervised child process exceeded its resident-set cap and was
    /// SIGKILLed by the parent.
    ResourceLimit {
        /// Observed resident set at the kill, in MiB.
        rss_mib: u64,
        /// The configured cap, in MiB.
        cap_mib: u64,
    },
}

impl std::fmt::Display for CrowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CrowError::Config(e) => write!(f, "{e}"),
            CrowError::Controller(e) => write!(f, "{e}"),
            CrowError::Trace(e) => write!(f, "{e}"),
            CrowError::Protocol { violations, first } => {
                write!(f, "{violations} protocol violation(s)")?;
                if let Some(first) = first {
                    write!(f, "; first: {first}")?;
                }
                Ok(())
            }
            CrowError::Journal { path, reason } => {
                write!(f, "campaign journal {path}: {reason}")
            }
            CrowError::Request { reason } => {
                write!(f, "bad request: {reason}")
            }
            CrowError::Quarantined {
                fingerprint,
                retry_after_ms,
            } => {
                write!(
                    f,
                    "quarantined: circuit breaker open for {fingerprint} (retry in {:.1}s)",
                    *retry_after_ms as f64 / 1000.0
                )
            }
            CrowError::ResourceLimit { rss_mib, cap_mib } => {
                write!(
                    f,
                    "resource-limit: child RSS {rss_mib} MiB exceeded cap {cap_mib} MiB (SIGKILL)"
                )
            }
        }
    }
}

impl std::error::Error for CrowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CrowError::Config(e) => Some(e),
            CrowError::Controller(e) => Some(e),
            CrowError::Trace(e) => Some(e),
            CrowError::Protocol { .. }
            | CrowError::Journal { .. }
            | CrowError::Request { .. }
            | CrowError::Quarantined { .. }
            | CrowError::ResourceLimit { .. } => None,
        }
    }
}

impl From<ConfigError> for CrowError {
    fn from(e: ConfigError) -> Self {
        CrowError::Config(e)
    }
}

impl From<McError> for CrowError {
    fn from(e: McError) -> Self {
        CrowError::Controller(e)
    }
}

impl From<TraceError> for CrowError {
    fn from(e: TraceError) -> Self {
        CrowError::Trace(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_chains_inner_messages() {
        let e: CrowError = ConfigError::new("DramConfig", "banks must be a power of two").into();
        assert_eq!(
            e.to_string(),
            "invalid DramConfig: banks must be a power of two"
        );
        let t: CrowError = TraceError::Exhausted { after: 3 }.into();
        assert_eq!(t.to_string(), "trace exhausted after 3 records");
        let p = CrowError::Protocol {
            violations: 2,
            first: Some("cycle 9: Act rank 0 bank 1: tFAW".into()),
        };
        assert!(p.to_string().contains("2 protocol violation(s)"));
        assert!(p.to_string().contains("tFAW"));
        let j = CrowError::Journal {
            path: "results/campaign/fig8.jsonl".into(),
            reason: "No space left on device".into(),
        };
        assert_eq!(
            j.to_string(),
            "campaign journal results/campaign/fig8.jsonl: No space left on device"
        );
        let q = CrowError::Quarantined {
            fingerprint: "serve/base/mcf/d16/llc4/ch1/s1".into(),
            retry_after_ms: 2_500,
        };
        assert_eq!(
            q.to_string(),
            "quarantined: circuit breaker open for serve/base/mcf/d16/llc4/ch1/s1 (retry in 2.5s)"
        );
        let r = CrowError::ResourceLimit {
            rss_mib: 97,
            cap_mib: 64,
        };
        assert_eq!(
            r.to_string(),
            "resource-limit: child RSS 97 MiB exceeded cap 64 MiB (SIGKILL)"
        );
    }

    #[test]
    fn source_reaches_root_cause() {
        use std::error::Error;
        let e: CrowError = McError::Config(ConfigError::new("McConfig", "read_q")).into();
        assert!(e.source().is_some());
        assert!(e.source().unwrap().source().is_some());
    }
}
