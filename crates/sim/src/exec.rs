//! The one job executor under campaigns, `crow-serve`, and process
//! isolation: run a job under a deadline, retry it at a degraded scale,
//! and record it.
//!
//! It has three parts:
//!
//! * **one attempt step, two backends.** [`in_thread`] runs an attempt
//!   on its own thread under `catch_unwind` and *abandons* it at its
//!   deadline (the thread runs on detached; its late result is
//!   discarded). The process backend in [`crate::supervise`] re-execs a
//!   sandboxed child and SIGKILLs it on a deadline or RSS-cap breach;
//!   its crashes and kills are circuit-breaker evidence.
//! * **one retry loop,** [`execute`]: the degrade ladder
//!   ([`CampaignPolicy::scale_for_attempt`]), one backoff rule
//!   ([`backoff`]), and the stop when a breaker opens.
//! * **one path to the journal,** [`Executed::record`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use crate::campaign::{fnv1a64, CampaignPolicy, JournalRecord, Journaled, OutcomeKind};
use crate::error::CrowError;
use crate::experiments::Scale;
use crate::supervise::Breakers;

/// Ceiling of the exponential retry backoff.
const BACKOFF_CAP: Duration = Duration::from_secs(2);

/// Locks `m`, recovering a poisoned lock: attempts never run while
/// holding one of these locks, and every update behind them is a single
/// step, so poison only means some other thread panicked elsewhere.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How one attempt ended.
pub(crate) enum Ended<R> {
    /// The attempt produced a result.
    Done(R),
    /// The attempt failed: `Panicked` (panic, structured error, crash,
    /// resource kill) or `TimedOut`. `evidence` marks process-level
    /// failures that count toward the fingerprint's circuit breaker.
    Failed {
        kind: OutcomeKind,
        error: String,
        evidence: bool,
    },
    /// The attempt could not start through no fault of the job (a child
    /// that cannot be spawned): no retry, no breaker evidence.
    Aborted(String),
}

/// The terminal outcome of one job, after every attempt.
pub(crate) struct Executed<R> {
    pub kind: OutcomeKind,
    pub attempts: u32,
    pub error: Option<String>,
    pub result: Option<R>,
    /// Attempts that ended at their deadline (abandoned threads under
    /// the thread backend).
    pub timeouts: u64,
}

impl<R: Journaled> Executed<R> {
    /// The journal record for this outcome under `fingerprint`.
    pub fn record(&self, fingerprint: String) -> JournalRecord {
        JournalRecord {
            fingerprint,
            kind: self.kind,
            attempts: self.attempts,
            error: self.error.clone(),
            payload: self.result.as_ref().map(|r| r.encode().render()),
        }
    }
}

/// Runs attempts of the job fingerprinted `fp` until one succeeds, the
/// retries run out, or its circuit breaker opens. `attempt` receives the
/// attempt index and the scale the degrade ladder chose for it. With
/// `breakers`, the caller has already passed [`Breakers::admit`]; this
/// loop posts every outcome and ends any probe it holds.
pub(crate) fn execute<R>(
    policy: &CampaignPolicy,
    fp: &str,
    breakers: Option<&Breakers>,
    mut attempt: impl FnMut(u32, Scale) -> Ended<R>,
) -> Executed<R> {
    let mut timeouts = 0;
    let mut n = 0;
    loop {
        let scale = policy.scale_for_attempt(n);
        let (kind, mut error, evidence, last) = match attempt(n, scale) {
            Ended::Done(r) => {
                if let Some(b) = breakers {
                    b.record_success(fp);
                }
                let kind = if scale == policy.scale {
                    OutcomeKind::Ok
                } else {
                    OutcomeKind::Degraded
                };
                return Executed {
                    kind,
                    attempts: n + 1,
                    error: None,
                    result: Some(r),
                    timeouts,
                };
            }
            Ended::Aborted(error) => (OutcomeKind::Panicked, error, false, true),
            Ended::Failed {
                kind,
                error,
                evidence,
            } => (kind, error, evidence, n >= policy.max_retries),
        };
        timeouts += u64::from(kind == OutcomeKind::TimedOut);
        let opened = evidence && breakers.is_some_and(|b| b.record_failure(fp));
        if opened {
            // A poison fingerprint stops retrying the moment its breaker
            // opens; duplicates are quarantined at admission.
            let k = breakers.map_or(0, Breakers::k);
            error =
                format!("{error}; circuit breaker opened after {k} consecutive child failure(s)");
        } else if last && !evidence {
            // Ending without process-level evidence decides nothing:
            // hand back any probe slot this job holds.
            if let Some(b) = breakers {
                b.release_probe(fp);
            }
        }
        if opened || last {
            return Executed {
                kind,
                attempts: n + 1,
                error: Some(error),
                result: None,
                timeouts,
            };
        }
        n += 1;
        std::thread::sleep(backoff(policy.backoff, fp, n));
    }
}

/// The retry backoff before attempt `retry` (≥ 1) of job `fp`:
/// `base * 2^(retry-1)`, capped at [`BACKOFF_CAP`] and jittered to
/// 50–150% by a hash of the job and attempt, so a storm of failing jobs
/// decorrelates while every run stays reproducible.
fn backoff(base: Duration, fp: &str, retry: u32) -> Duration {
    let exp = retry.saturating_sub(1).min(10);
    let capped = base.saturating_mul(1 << exp).min(BACKOFF_CAP);
    let h = fnv1a64(format!("{fp}/{retry}").as_bytes());
    capped.mul_f64(0.5 + (h % 1024) as f64 / 1024.0)
}

/// The thread backend: runs one attempt on its own thread under
/// `catch_unwind`. Past `deadline` the attempt is abandoned: the thread
/// keeps running detached and its late result is dropped.
pub(crate) fn in_thread<R: Send + 'static>(
    deadline: Option<Duration>,
    run: impl FnOnce() -> Result<R, CrowError> + Send + 'static,
) -> Ended<R> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        // The receiver may have abandoned us; a closed channel is fine.
        let _ = tx.send(catch_unwind(AssertUnwindSafe(run)));
    });
    let got = match deadline {
        Some(d) => rx.recv_timeout(d),
        None => rx.recv().map_err(|_| mpsc::RecvTimeoutError::Disconnected),
    };
    let failed = |kind, error| Ended::Failed {
        kind,
        error,
        evidence: false,
    };
    match got {
        Ok(Ok(Ok(r))) => Ended::Done(r),
        Ok(Ok(Err(e))) => failed(OutcomeKind::Panicked, format!("error: {e}")),
        Ok(Err(payload)) => failed(
            OutcomeKind::Panicked,
            format!("panic: {}", panic_message(payload.as_ref())),
        ),
        Err(mpsc::RecvTimeoutError::Timeout) => failed(
            OutcomeKind::TimedOut,
            format!(
                "deadline: attempt exceeded {:?}",
                deadline.unwrap_or_default()
            ),
        ),
        Err(mpsc::RecvTimeoutError::Disconnected) => failed(
            OutcomeKind::Panicked,
            "panic: attempt thread vanished".into(),
        ),
    }
}

/// Best-effort text of a panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervise::Admit;
    use std::cell::RefCell;

    fn policy(max_retries: u32) -> CampaignPolicy {
        let mut p = CampaignPolicy::new(Scale::tiny());
        p.max_retries = max_retries;
        p.backoff = Duration::from_millis(1);
        p
    }

    /// Drives [`execute`] through a scripted attempt sequence, recording
    /// the scale each attempt was offered.
    fn scripted(
        p: &CampaignPolicy,
        breakers: Option<&Breakers>,
        script: Vec<Ended<u64>>,
    ) -> (Executed<u64>, Vec<Scale>) {
        let script = RefCell::new(script.into_iter());
        let mut scales = Vec::new();
        let ex = execute(p, "job", breakers, |_, scale| {
            scales.push(scale);
            script.borrow_mut().next().expect("script long enough")
        });
        (ex, scales)
    }

    fn failed(kind: OutcomeKind, evidence: bool) -> Ended<u64> {
        Ended::Failed {
            kind,
            error: format!("{} attempt", kind.as_str()),
            evidence,
        }
    }

    #[test]
    fn error_then_ok_is_degraded_after_two_attempts() {
        let p = policy(1);
        let script = vec![failed(OutcomeKind::Panicked, false), Ended::Done(7)];
        let (ex, scales) = scripted(&p, None, script);
        assert_eq!(ex.kind, OutcomeKind::Degraded);
        assert_eq!((ex.attempts, ex.result, ex.error), (2, Some(7), None));
        assert_eq!(scales, [p.scale_for_attempt(0), p.scale_for_attempt(1)]);
        assert!(scales[1].insts < scales[0].insts, "the retry ran degraded");
    }

    #[test]
    fn timeout_on_every_attempt_times_out_after_all_retries() {
        let p = policy(2);
        let script = (0..3).map(|_| failed(OutcomeKind::TimedOut, false));
        let (ex, scales) = scripted(&p, None, script.collect());
        assert_eq!(ex.kind, OutcomeKind::TimedOut);
        assert_eq!(ex.attempts, p.max_retries + 1);
        assert_eq!((ex.timeouts, scales.len()), (3, 3));
        assert!(ex.result.is_none());
        assert_eq!(ex.error.as_deref(), Some("timed_out attempt"));
        let rec = ex.record("job@s".into());
        assert_eq!((rec.kind, rec.attempts, rec.payload), (ex.kind, 3, None));
    }

    #[test]
    fn crash_that_opens_the_breaker_stops_the_retries() {
        let p = policy(5);
        let b = Breakers::new(2, Duration::from_secs(60));
        let script = (0..6).map(|_| failed(OutcomeKind::Panicked, true));
        let (ex, scales) = scripted(&p, Some(&b), script.collect());
        assert_eq!((ex.kind, ex.attempts), (OutcomeKind::Panicked, 2));
        assert_eq!(scales.len(), 2, "no attempt after the breaker opened");
        let msg = ex.error.expect("failure message");
        assert!(msg.contains("circuit breaker opened after 2"), "{msg}");
        assert!(matches!(b.admit("job"), Admit::Quarantined { .. }));
        // Structured failures are not evidence: the ladder runs out.
        let b = Breakers::new(1, Duration::from_secs(60));
        let script = (0..6).map(|_| failed(OutcomeKind::Panicked, false));
        let (ex, _) = scripted(&p, Some(&b), script.collect());
        assert_eq!(ex.attempts, 6);
        assert_eq!(b.admit("job"), Admit::Run);
    }

    #[test]
    fn success_is_ok_and_an_aborted_attempt_is_final() {
        let (ex, _) = scripted(&policy(1), None, vec![Ended::Done(9)]);
        assert_eq!((ex.kind, ex.attempts), (OutcomeKind::Ok, 1));
        assert_eq!(ex.record("fp".into()).payload.as_deref(), Some("9"));
        let script = vec![Ended::Aborted("spawn: no such file".into())];
        let (ex, _) = scripted(&policy(3), None, script);
        assert_eq!((ex.kind, ex.attempts), (OutcomeKind::Panicked, 1));
    }

    #[test]
    fn backoff_grows_caps_and_jitters_deterministically() {
        let base = Duration::from_millis(100);
        let b1 = backoff(base, "fp", 1);
        assert!(b1 >= base / 2 && b1 <= base * 3 / 2, "{b1:?}");
        assert_eq!(b1, backoff(base, "fp", 1), "reproducible");
        let b3 = backoff(base, "fp", 3);
        assert!(b3 >= base * 2 && b3 <= base * 6, "{b3:?}");
        assert!(backoff(base, "fp", 30) <= BACKOFF_CAP * 3 / 2);
    }

    #[test]
    fn thread_backend_contains_panics_and_abandons_at_the_deadline() {
        assert!(matches!(in_thread(None, || Ok(3u64)), Ended::Done(3)));
        let end = in_thread(None, || -> Result<u64, CrowError> { panic!("boom") });
        assert!(matches!(
            &end,
            Ended::Failed { kind: OutcomeKind::Panicked, error, .. } if error == "panic: boom"
        ));
        let end = in_thread(Some(Duration::from_millis(20)), || {
            std::thread::sleep(Duration::from_secs(5));
            Ok(1u64)
        });
        assert!(matches!(
            &end,
            Ended::Failed { kind: OutcomeKind::TimedOut, error, .. } if error.starts_with("deadline")
        ));
    }
}
