//! Deterministic fault injection (failpoints) for the reclamation
//! protocol and its dependents.
//!
//! A *failpoint* is a named probe compiled into a protocol edge — an
//! allocation, a commit CAS, a deferred callback — that a test can arm to
//! fail deterministically. The subsystem exists only under the `faults`
//! cargo feature: without it every probe below is an `#[inline(always)]`
//! constant-false stub, so production builds carry no branch, no registry,
//! and no string comparisons. Dependent crates (`bonsai`) forward the
//! feature, so one `--features faults` switch arms the whole stack.
//!
//! # Determinism and replay
//!
//! Armed faults fire as a pure function of `(seed, site, hit-index)` — no
//! clocks, no global RNG — so a failing run is reproducible bit-for-bit
//! from its **replay token**. The chaos harnesses print the token as
//! `FAULT_REPLAY=<token>` on failure (mirroring `LOOMETTE_REPLAY` from the
//! model-checking tier); re-arm with `arm_token` to replay exactly the
//! schedule that fired, independent of probability mode:
//!
//! ```text
//! FAULT_REPLAY=seed=42,pm=30;tree.post_cas@17,arena.alloc@203
//! ```
//!
//! The part before `;` records how the run was armed (diagnostic); the
//! part after is the fired-site schedule the replay re-injects.
//!
//! # Probes
//!
//! * [`should_fail`] — decision probe: "does this site fail now?" The
//!   caller implements the failure (return an error path, skip a CAS).
//! * [`maybe_panic`] — panics with an `injected fault:` message when the
//!   site fires; the standard probe for allocation-failure and
//!   mid-protocol-crash sites.
//! * [`maybe_stall`] — burns a bounded busy-wait when the site fires; the
//!   probe for reader-stall/slow-down sites.
//!
//! Probes on unarmed sites count hits but never fire; probes while the
//! registry is disarmed are free of side effects entirely.

#[cfg(feature = "faults")]
pub use imp::{arm, arm_schedule, arm_token, disarm, fired, hits, replay_token};

/// Canonical failpoint site names, one per instrumented protocol edge (the
/// table lives in `docs/CONCURRENCY.md` §10). Sites are plain strings so
/// dependent crates can add their own without touching this registry.
pub mod site {
    /// Arena block allocation in the copy-on-write rebuild
    /// (`bonsai::Arena::alloc`): fires as a panic, modelling allocation
    /// failure mid-update.
    pub const ARENA_ALLOC: &str = "arena.alloc";
    /// Forced root-CAS failure in the commit loop behind every `BonsaiTree`
    /// update: the attempt takes the contention path (discard + rebuild)
    /// even though no concurrent writer exists.
    pub const TREE_CAS: &str = "tree.cas";
    /// Panic immediately before the commit CAS, after the speculative
    /// path is fully built (nothing published yet).
    pub const TREE_PRE_PUBLISH: &str = "tree.pre_publish";
    /// Panic immediately after a successful commit CAS, before the
    /// reference-count accounting ran — the hardest window: the new root
    /// is live but unaccounted.
    pub const TREE_POST_CAS: &str = "tree.post_cas";
    /// Panic inside a deferred `Call` callback as the reclaimer drains a
    /// bag (the `callback_panics` regression).
    pub const DEFERRED_CALLBACK: &str = "deferred.callback";
    /// Reader-side stall: a bounded busy-wait inside read protection.
    pub const READER_STALL: &str = "reader.stall";
}

/// Decision probe: whether the armed plan fires `site` at this hit.
/// Always `false` when the registry is disarmed (or the feature is off).
#[cfg(not(feature = "faults"))]
#[inline(always)]
pub fn should_fail(_site: &'static str) -> bool {
    false
}

/// Panic probe: panics with `injected fault: <site>@<hit>` when the site
/// fires. No-op when disarmed (or the feature is off).
#[cfg(not(feature = "faults"))]
#[inline(always)]
pub fn maybe_panic(_site: &'static str) {}

/// Stall probe: burns a bounded busy-wait when the site fires. No-op when
/// disarmed (or the feature is off).
#[cfg(not(feature = "faults"))]
#[inline(always)]
pub fn maybe_stall(_site: &'static str) {}

#[cfg(feature = "faults")]
pub use imp::{maybe_panic, maybe_stall, should_fail};

#[cfg(feature = "faults")]
mod imp {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};

    /// How an armed registry decides whether a `(site, hit)` fires.
    enum Plan {
        /// Bernoulli per hit: fires with probability `per_mille`/1000,
        /// decided by a hash of `(seed, site, hit)` — stateless, so the
        /// same arming replays identically whatever the interleaving of
        /// *other* sites.
        Random { seed: u64, per_mille: u32 },
        /// Fire exactly at the listed hit indices per site.
        Schedule(HashMap<String, Vec<u64>>),
    }

    struct Registry {
        plan: Option<Plan>,
        /// Armed-run descriptor for the replay token's prefix.
        armed_as: String,
        /// Per-site hit counters (counted while armed).
        hits: HashMap<&'static str, u64>,
        /// Every `(site, hit)` that fired, in firing order.
        fired: Vec<(&'static str, u64)>,
    }

    fn registry() -> &'static Mutex<Registry> {
        static REG: OnceLock<Mutex<Registry>> = OnceLock::new();
        REG.get_or_init(|| {
            Mutex::new(Registry {
                plan: None,
                armed_as: String::new(),
                hits: HashMap::new(),
                fired: Vec::new(),
            })
        })
    }

    /// SplitMix64 finalizer over `(seed, site, hit)` — a stateless,
    /// well-mixed decision function.
    fn mix(seed: u64, site: &str, hit: u64) -> u64 {
        let mut z = seed ^ hit.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for b in site.bytes() {
            z = (z ^ u64::from(b)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        }
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Arms Bernoulli injection: every probe hit fires with probability
    /// `per_mille`/1000, decided deterministically from `seed`. Resets
    /// hit counters and the fired log.
    pub fn arm(seed: u64, per_mille: u32) {
        let mut reg = registry().lock().unwrap();
        reg.plan = Some(Plan::Random { seed, per_mille });
        reg.armed_as = format!("seed={seed},pm={per_mille}");
        reg.hits.clear();
        reg.fired.clear();
    }

    /// Arms a fixed schedule: site `s` fires exactly at the hit indices
    /// listed for it (0-based). Resets hit counters and the fired log.
    pub fn arm_schedule(schedule: &[(&str, u64)]) {
        let mut reg = registry().lock().unwrap();
        let mut map: HashMap<String, Vec<u64>> = HashMap::new();
        for (site, hit) in schedule {
            map.entry((*site).to_string()).or_default().push(*hit);
        }
        reg.armed_as = format!(
            "schedule={}",
            schedule
                .iter()
                .map(|(s, h)| format!("{s}@{h}"))
                .collect::<Vec<_>>()
                .join("+")
        );
        reg.plan = Some(Plan::Schedule(map));
        reg.hits.clear();
        reg.fired.clear();
    }

    /// Re-arms from a replay token's fired-site schedule (everything after
    /// the `;`), reproducing exactly the faults of the recorded run.
    ///
    /// # Panics
    ///
    /// Panics on a malformed token.
    pub fn arm_token(token: &str) {
        let sched = token.rsplit(';').next().unwrap_or("");
        let mut pairs = Vec::new();
        for part in sched.split(',').filter(|p| !p.is_empty()) {
            let (site, hit) = part
                .rsplit_once('@')
                .unwrap_or_else(|| panic!("malformed FAULT_REPLAY entry {part:?}"));
            let hit: u64 = hit
                .parse()
                .unwrap_or_else(|_| panic!("malformed FAULT_REPLAY hit index {part:?}"));
            pairs.push((site.to_string(), hit));
        }
        let borrowed: Vec<(&str, u64)> = pairs.iter().map(|(s, h)| (s.as_str(), *h)).collect();
        arm_schedule(&borrowed);
    }

    /// Disarms every site; probes become side-effect-free again.
    pub fn disarm() {
        let mut reg = registry().lock().unwrap();
        reg.plan = None;
    }

    /// The replay token for the current armed run:
    /// `<armed-as>;<site>@<hit>,...` — print as `FAULT_REPLAY=<token>` on
    /// failure and feed back through [`arm_token`].
    pub fn replay_token() -> String {
        let reg = registry().lock().unwrap();
        let fired = reg
            .fired
            .iter()
            .map(|(s, h)| format!("{s}@{h}"))
            .collect::<Vec<_>>()
            .join(",");
        format!("{};{}", reg.armed_as, fired)
    }

    /// Hit count for `site` in the current armed run.
    pub fn hits(site: &'static str) -> u64 {
        registry()
            .lock()
            .unwrap()
            .hits
            .get(site)
            .copied()
            .unwrap_or(0)
    }

    /// Number of faults fired in the current armed run.
    pub fn fired() -> usize {
        registry().lock().unwrap().fired.len()
    }

    /// Probes `site`: counts the hit and decides (and records) firing.
    fn probe(site: &'static str) -> Option<u64> {
        let mut reg = registry().lock().unwrap();
        reg.plan.as_ref()?;
        let hit = {
            let h = reg.hits.entry(site).or_insert(0);
            let hit = *h;
            *h += 1;
            hit
        };
        let fire = match reg.plan.as_ref().unwrap() {
            Plan::Random { seed, per_mille } => {
                mix(*seed, site, hit) % 1000 < u64::from(*per_mille)
            }
            Plan::Schedule(map) => map.get(site).is_some_and(|hits| hits.contains(&hit)),
        };
        if fire {
            reg.fired.push((site, hit));
            Some(hit)
        } else {
            None
        }
    }

    /// See the crate-level stub docs: decision probe.
    pub fn should_fail(site: &'static str) -> bool {
        probe(site).is_some()
    }

    /// See the crate-level stub docs: panic probe.
    pub fn maybe_panic(site: &'static str) {
        if let Some(hit) = probe(site) {
            panic!("injected fault: {site}@{hit}");
        }
    }

    /// See the crate-level stub docs: stall probe (a bounded busy-wait, so
    /// stalls stay deterministic in duration-free tests).
    pub fn maybe_stall(site: &'static str) {
        if probe(site).is_some() {
            for _ in 0..1 << 12 {
                std::hint::spin_loop();
            }
        }
    }
}

#[cfg(all(test, feature = "faults"))]
mod tests {
    use super::*;

    // The registry is process-global, so these tests serialize on a lock
    // rather than racing each other's arm/disarm.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disarmed_probes_never_fire() {
        let _s = serial();
        disarm();
        for _ in 0..100 {
            assert!(!should_fail(site::ARENA_ALLOC));
        }
        maybe_panic(site::TREE_POST_CAS); // must not panic
    }

    #[test]
    fn random_plan_is_deterministic_and_replayable() {
        let _s = serial();
        arm(42, 200);
        let run: Vec<bool> = (0..200).map(|_| should_fail(site::TREE_CAS)).collect();
        let token = replay_token();
        assert!(run.iter().any(|&b| b), "pm=200 over 200 hits fired nothing");
        // Same seed → same decisions.
        arm(42, 200);
        let again: Vec<bool> = (0..200).map(|_| should_fail(site::TREE_CAS)).collect();
        assert_eq!(run, again);
        // Replaying the token's schedule fires the same hits.
        arm_token(&token);
        let replay: Vec<bool> = (0..200).map(|_| should_fail(site::TREE_CAS)).collect();
        assert_eq!(run, replay);
        disarm();
    }

    #[test]
    fn schedule_fires_exact_hits_and_panics() {
        let _s = serial();
        arm_schedule(&[(site::ARENA_ALLOC, 2)]);
        assert!(!should_fail(site::ARENA_ALLOC)); // hit 0
        assert!(!should_fail(site::ARENA_ALLOC)); // hit 1
        let err = std::panic::catch_unwind(|| maybe_panic(site::ARENA_ALLOC)) // hit 2
            .expect_err("scheduled hit must panic");
        let msg = err.downcast_ref::<String>().expect("panic payload");
        assert!(msg.contains("injected fault: arena.alloc@2"), "{msg}");
        assert!(!should_fail(site::ARENA_ALLOC)); // hit 3
        assert_eq!(hits(site::ARENA_ALLOC), 4);
        assert!(
            replay_token().ends_with(";arena.alloc@2"),
            "{}",
            replay_token()
        );
        disarm();
    }

    #[test]
    fn distinct_sites_count_independently() {
        let _s = serial();
        arm(7, 0); // armed but never fires
        should_fail(site::TREE_CAS);
        should_fail(site::TREE_CAS);
        should_fail(site::READER_STALL);
        maybe_stall(site::READER_STALL);
        assert_eq!(hits(site::TREE_CAS), 2);
        assert_eq!(hits(site::READER_STALL), 2);
        assert_eq!(fired(), 0);
        disarm();
    }
}
