//! Deterministic fault injection.
//!
//! Production code threads named **probe sites** through its failure-prone
//! paths — `if phylo_faults::fire("amc::arena_alloc") { return Err(…); }` — and
//! the robustness test suite **arms** those sites with a trigger to force
//! the failure at a precise, reproducible point. The subsystem has two
//! compilation modes:
//!
//! * default (no features): [`fire`] is a `#[inline(always)]` constant
//!   `false`, so every probe folds away and release binaries carry no
//!   registry, no locks, and no string comparisons;
//! * `--features inject`: probes consult a process-global registry keyed
//!   by site name. Sites are armed with a [`Trigger`] (fire once after N
//!   calls, every Nth call, or always) and report how often they fired,
//!   so tests can assert the fault actually happened.
//!
//! The registry is global state: tests that arm sites must serialize
//! (e.g. behind a `static Mutex`) and call [`reset`] when done.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
/// When an armed site fires.
pub enum Trigger {
    /// Fire exactly once, on the `(after + 1)`-th probe.
    Once {
        /// Probes to let pass before firing.
        after: u64,
    },
    /// Fire on every `period`-th probe (1 = every probe).
    Every {
        /// Probe interval; 0 is treated as 1.
        period: u64,
    },
    /// Fire on every probe.
    Always,
}

#[cfg(feature = "inject")]
mod registry {
    use super::Trigger;
    use std::collections::HashMap;
    use std::sync::Mutex;

    struct Site {
        trigger: Trigger,
        calls: u64,
        hits: u64,
    }

    static REGISTRY: Mutex<Option<HashMap<String, Site>>> = Mutex::new(None);

    fn with_registry<R>(f: impl FnOnce(&mut HashMap<String, Site>) -> R) -> R {
        let mut guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
        f(guard.get_or_insert_with(HashMap::new))
    }

    pub fn fire(site: &str) -> bool {
        with_registry(|reg| {
            let Some(s) = reg.get_mut(site) else { return false };
            let call = s.calls;
            s.calls += 1;
            let hit = match s.trigger {
                Trigger::Once { after } => call == after && s.hits == 0,
                Trigger::Every { period } => call % period.max(1) == 0,
                Trigger::Always => true,
            };
            if hit {
                s.hits += 1;
            }
            hit
        })
    }

    pub fn arm(site: &str, trigger: Trigger) {
        with_registry(|reg| {
            reg.insert(site.to_string(), Site { trigger, calls: 0, hits: 0 });
        });
    }

    pub fn disarm(site: &str) {
        with_registry(|reg| {
            reg.remove(site);
        });
    }

    pub fn reset() {
        with_registry(|reg| reg.clear());
    }

    pub fn hits(site: &str) -> u64 {
        with_registry(|reg| reg.get(site).map_or(0, |s| s.hits))
    }
}

/// Probes a fault site; `true` means the caller must simulate the fault.
/// Constant `false` (and thus dead code) unless built with `inject`.
#[cfg(feature = "inject")]
#[inline]
pub fn fire(site: &str) -> bool {
    registry::fire(site)
}

/// Probes a fault site; `true` means the caller must simulate the fault.
/// Constant `false` (and thus dead code) unless built with `inject`.
#[cfg(not(feature = "inject"))]
#[inline(always)]
pub fn fire(_site: &str) -> bool {
    false
}

/// Arms `site` with a trigger (replacing any previous arming).
#[cfg(feature = "inject")]
pub fn arm(site: &str, trigger: Trigger) {
    registry::arm(site, trigger);
}

/// Arms `site` with a trigger (replacing any previous arming).
#[cfg(not(feature = "inject"))]
pub fn arm(_site: &str, _trigger: Trigger) {}

/// Disarms `site`, forgetting its counters.
#[cfg(feature = "inject")]
pub fn disarm(site: &str) {
    registry::disarm(site);
}

/// Disarms `site`, forgetting its counters.
#[cfg(not(feature = "inject"))]
pub fn disarm(_site: &str) {}

/// Disarms every site and clears all counters.
#[cfg(feature = "inject")]
pub fn reset() {
    registry::reset();
}

/// Disarms every site and clears all counters.
#[cfg(not(feature = "inject"))]
pub fn reset() {}

/// How many times `site` has fired since it was armed.
#[cfg(feature = "inject")]
pub fn hits(site: &str) -> u64 {
    registry::hits(site)
}

/// How many times `site` has fired since it was armed.
#[cfg(not(feature = "inject"))]
pub fn hits(_site: &str) -> u64 {
    0
}

/// Parses one trigger spec: `always`, `once[:after]`, or `every[:period]`
/// (`once` alone means `once:0`, `every` alone means `every:1`).
pub fn parse_trigger(spec: &str) -> Result<Trigger, String> {
    let (kind, arg) = match spec.split_once(':') {
        Some((k, a)) => (k, Some(a)),
        None => (spec, None),
    };
    let num = |a: Option<&str>, default: u64| -> Result<u64, String> {
        match a {
            None => Ok(default),
            Some(s) => s.parse().map_err(|_| format!("bad trigger count {s:?} in {spec:?}")),
        }
    };
    match kind {
        "always" if arg.is_none() => Ok(Trigger::Always),
        "once" => Ok(Trigger::Once { after: num(arg, 0)? }),
        "every" => Ok(Trigger::Every { period: num(arg, 1)? }),
        _ => Err(format!("bad trigger {spec:?} (want always, once[:N], or every[:N])")),
    }
}

/// Arms sites from a comma-separated `site=trigger` spec, e.g.
/// `serve::mid_request_crash=once,journal::torn_write=every:3`. This is
/// how fault injection crosses a process boundary: a test sets the spec
/// in a binary's `PHYLO_FAULTS` environment and the binary arms it at
/// startup via [`arm_from_env`]. Without the `inject` feature the spec
/// is still validated but arming is a no-op.
pub fn arm_from_spec(spec: &str) -> Result<(), String> {
    for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let (site, trig) = part
            .split_once('=')
            .ok_or_else(|| format!("bad fault spec {part:?} (want site=trigger)"))?;
        let site = site.trim();
        if site.is_empty() {
            return Err(format!("bad fault spec {part:?}: empty site name"));
        }
        arm(site, parse_trigger(trig.trim())?);
    }
    Ok(())
}

/// Arms sites from the `PHYLO_FAULTS` environment variable (absent or
/// empty means nothing is armed). A malformed spec is returned as an
/// error so binaries can refuse to run with a half-armed matrix.
pub fn arm_from_env() -> Result<(), String> {
    match std::env::var("PHYLO_FAULTS") {
        Ok(spec) if !spec.trim().is_empty() => {
            arm_from_spec(&spec).map_err(|e| format!("PHYLO_FAULTS: {e}"))
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod spec_tests {
    use super::*;

    #[test]
    fn triggers_parse() {
        assert_eq!(parse_trigger("always"), Ok(Trigger::Always));
        assert_eq!(parse_trigger("once"), Ok(Trigger::Once { after: 0 }));
        assert_eq!(parse_trigger("once:3"), Ok(Trigger::Once { after: 3 }));
        assert_eq!(parse_trigger("every"), Ok(Trigger::Every { period: 1 }));
        assert_eq!(parse_trigger("every:2"), Ok(Trigger::Every { period: 2 }));
        for bad in ["", "sometimes", "once:x", "every:", "always:1"] {
            assert!(parse_trigger(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn specs_validate() {
        assert!(arm_from_spec("").is_ok());
        assert!(arm_from_spec("a::b=always, c::d=once:2").is_ok());
        assert!(arm_from_spec("nosign").is_err());
        assert!(arm_from_spec("=always").is_err());
        assert!(arm_from_spec("a=never").is_err());
        reset();
    }
}

#[cfg(all(test, feature = "inject"))]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // The registry is process-global; serialize the tests touching it.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn arm_from_spec_arms_sites() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        arm_from_spec("x::one=once:1,x::two=always").unwrap();
        assert!(!fire("x::one"));
        assert!(fire("x::one"));
        assert!(!fire("x::one"));
        assert!(fire("x::two"));
        reset();
    }

    #[test]
    fn unarmed_sites_never_fire() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        assert!(!fire("nope"));
        assert_eq!(hits("nope"), 0);
    }

    #[test]
    fn once_fires_exactly_once_after_n() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        arm("s", Trigger::Once { after: 2 });
        assert!(!fire("s"));
        assert!(!fire("s"));
        assert!(fire("s"));
        assert!(!fire("s"));
        assert_eq!(hits("s"), 1);
        reset();
    }

    #[test]
    fn every_period_fires_periodically() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        arm("p", Trigger::Every { period: 3 });
        let fired: Vec<bool> = (0..6).map(|_| fire("p")).collect();
        assert_eq!(fired, vec![true, false, false, true, false, false]);
        assert_eq!(hits("p"), 2);
        reset();
    }

    #[test]
    fn always_fires_until_disarmed() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        arm("a", Trigger::Always);
        assert!(fire("a"));
        assert!(fire("a"));
        disarm("a");
        assert!(!fire("a"));
        reset();
    }
}
