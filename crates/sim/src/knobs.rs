//! One strict reader for the `CROW_*` environment knobs.
//!
//! Every `from_lookup` parses through [`Knobs`], so every knob shares one
//! grammar: integers and seconds are trimmed and must parse whole,
//! booleans are `1|true|yes` or `0|false|no` (empty reads as off), and a
//! malformed value is a [`CrowError::Config`] naming the variable —
//! never a silent default.

use std::time::Duration;

use crate::error::CrowError;

/// A typed view of one environment lookup for one configuration owner.
pub(crate) struct Knobs<'a> {
    owner: &'static str,
    lookup: &'a dyn Fn(&str) -> Option<String>,
}

impl<'a> Knobs<'a> {
    /// Knobs of `owner` (the name configuration errors carry).
    pub(crate) fn new(owner: &'static str, lookup: &'a dyn Fn(&str) -> Option<String>) -> Self {
        Self { owner, lookup }
    }

    /// The raw value of `key`, if set.
    pub(crate) fn raw(&self, key: &str) -> Option<String> {
        (self.lookup)(key)
    }

    /// A configuration error attributed to this owner.
    pub(crate) fn err(&self, reason: impl Into<String>) -> CrowError {
        CrowError::Config(crow_dram::ConfigError::new(self.owner, reason))
    }

    /// An unsigned integer of at least `min`.
    pub(crate) fn uint(&self, key: &str, min: u64) -> Result<Option<u64>, CrowError> {
        let Some(v) = self.raw(key) else {
            return Ok(None);
        };
        let n: u64 = v
            .trim()
            .parse()
            .map_err(|_| self.err(format!("{key}={v:?} is not an unsigned integer")))?;
        if n < min {
            return Err(self.err(format!("{key}={v:?} must be at least {min}")));
        }
        Ok(Some(n))
    }

    /// [`Knobs::uint`] narrowed to 32 bits.
    pub(crate) fn u32(&self, key: &str, min: u64) -> Result<Option<u32>, CrowError> {
        self.uint(key, min)?
            .map(|n| {
                u32::try_from(n).map_err(|_| self.err(format!("{key} does not fit in 32 bits")))
            })
            .transpose()
    }

    /// A finite, non-negative number of (fractional) seconds.
    pub(crate) fn secs(&self, key: &str) -> Result<Option<Duration>, CrowError> {
        let Some(v) = self.raw(key) else {
            return Ok(None);
        };
        let s: f64 = v
            .trim()
            .parse()
            .map_err(|_| self.err(format!("{key}={v:?} is not a number of seconds")))?;
        if !(s >= 0.0 && s.is_finite()) {
            return Err(self.err(format!("{key}={v:?} must be a finite non-negative number")));
        }
        Ok(Some(Duration::from_secs_f64(s)))
    }

    /// A boolean: `1|true|yes` or `0|false|no`; empty reads as off.
    pub(crate) fn flag(&self, key: &str) -> Result<Option<bool>, CrowError> {
        let Some(v) = self.raw(key) else {
            return Ok(None);
        };
        match v.trim() {
            "1" | "true" | "yes" => Ok(Some(true)),
            "0" | "false" | "no" | "" => Ok(Some(false)),
            _ => Err(self.err(format!(
                "{key}={v:?} is not a boolean (1/true/yes or 0/false/no)"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(key: &'static str, val: &'static str) -> impl Fn(&str) -> Option<String> {
        move |k| (k == key).then(|| val.to_string())
    }

    #[test]
    fn booleans_share_one_grammar() {
        for (v, want) in [
            ("1", true),
            ("true", true),
            ("yes", true),
            (" yes ", true),
            ("0", false),
            ("false", false),
            ("no", false),
            ("", false),
        ] {
            let l = one("K", v);
            assert_eq!(Knobs::new("T", &l).flag("K").unwrap(), Some(want), "{v:?}");
        }
        for v in ["2", "on", "TRUE", "maybe"] {
            let l = one("K", v);
            let err = Knobs::new("T", &l).flag("K").unwrap_err().to_string();
            assert!(err.contains("invalid T: K="), "{err}");
        }
        let none = |_: &str| None;
        assert_eq!(Knobs::new("T", &none).flag("K").unwrap(), None);
    }

    #[test]
    fn numbers_are_strict() {
        let l = one("N", " 42 ");
        let k = Knobs::new("T", &l);
        assert_eq!(k.uint("N", 0).unwrap(), Some(42));
        assert!(k.uint("N", 43).is_err(), "below the minimum");
        assert_eq!(k.u32("N", 1).unwrap(), Some(42));
        assert_eq!(k.secs("N").unwrap(), Some(Duration::from_secs(42)));
        for v in ["-1", "4O", "1e3", "99999999999999999999"] {
            let l = one("N", v);
            assert!(Knobs::new("T", &l).uint("N", 0).is_err(), "{v:?}");
        }
        let l = one("N", "99999999999");
        assert!(Knobs::new("T", &l).u32("N", 0).is_err());
        for v in ["NaN", "-2", "inf", "soon"] {
            let l = one("N", v);
            assert!(Knobs::new("T", &l).secs("N").is_err(), "{v:?}");
        }
    }
}
