//! Deterministic, seeded fault injection for chaos-testing the serving
//! and lifecycle stack.
//!
//! The robustness claims of the update/retrain pipeline — panic-isolated
//! retrains, bounded-retry backoff, admission control, graceful
//! degradation — are only claims until something actually fails. This
//! module makes failure *reproducible*: a [`FaultSchedule`] names which
//! occurrence of each [`FaultPoint`] fires (armed explicitly or drawn
//! from a seed), and a [`FaultInjector`] counts evaluations at runtime
//! so the same schedule replays the same faults every run.
//!
//! Determinism contract: each fault point is evaluated from a single
//! thread (the lifecycle worker owns the retrain-side points, the
//! update thread owns `UpdateBurst`), so the per-point
//! evaluation counter advances in a fixed order and `should_fire` is a
//! pure function of the schedule. The counters are atomics only so the
//! injector can be shared (`Arc`) between the worker and the update
//! thread without a lock.
//!
//! Crashes are not fault points: the lifecycle simulator crashes an
//! in-memory [`crate::storage::Storage`] after any call instead.

use rand::{Rng as _, SeedableRng as _};
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicU64, Ordering};

/// A named place in the serving/lifecycle stack where a fault can be
/// injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultPoint {
    /// Panic inside the background retrain (the `Trainer` call) — the
    /// worker's `catch_unwind` isolation must contain it.
    RetrainPanic,
    /// Corrupt the retrained template before `adopt` — the pre-publish
    /// linear-scan spot check must reject the swap.
    AdoptCorruption,
    /// A burst of extra inserts at one churn step — pressure on the
    /// bounded overlay and its fold-rebuild backpressure.
    UpdateBurst,
}

/// Every fault point, in the canonical (index) order.
pub const FAULT_POINTS: [FaultPoint; 3] =
    [FaultPoint::RetrainPanic, FaultPoint::AdoptCorruption, FaultPoint::UpdateBurst];

impl FaultPoint {
    /// Stable CLI/log name of the point.
    pub const fn name(self) -> &'static str {
        match self {
            FaultPoint::RetrainPanic => "retrain-panic",
            FaultPoint::AdoptCorruption => "adopt-corruption",
            FaultPoint::UpdateBurst => "update-burst",
        }
    }

    /// Parse a CLI/log name back into the point.
    pub fn from_name(name: &str) -> Option<FaultPoint> {
        FAULT_POINTS.into_iter().find(|p| p.name() == name)
    }

    const fn index(self) -> usize {
        match self {
            FaultPoint::RetrainPanic => 0,
            FaultPoint::AdoptCorruption => 1,
            FaultPoint::UpdateBurst => 2,
        }
    }
}

impl std::fmt::Display for FaultPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a fault-schedule spec failed to parse. Each variant names the
/// offending token so a CLI typo is pinpointed, not just rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultParseError {
    /// A clause had no `@` separator.
    MissingAt {
        /// The clause as written.
        clause: String,
    },
    /// The point name before the `@` is not a known [`FaultPoint`].
    UnknownPoint {
        /// The unrecognised name token.
        token: String,
    },
    /// An occurrence after the `@` is not an unsigned integer.
    BadOccurrence {
        /// The unparsable occurrence token.
        token: String,
        /// The clause it appeared in.
        clause: String,
    },
}

impl std::fmt::Display for FaultParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultParseError::MissingAt { clause } => {
                write!(f, "fault clause {clause:?} is not point@occ[,occ...]")
            }
            FaultParseError::UnknownPoint { token } => {
                let known: Vec<&str> = FAULT_POINTS.iter().map(|p| p.name()).collect();
                write!(f, "unknown fault point {token:?} (known: {})", known.join(", "))
            }
            FaultParseError::BadOccurrence { token, clause } => {
                write!(f, "bad occurrence {token:?} in clause {clause:?}")
            }
        }
    }
}

impl std::error::Error for FaultParseError {}

/// Which occurrences of each fault point fire: `occurrence` `n` means
/// the `n`-th (0-based) time that point is evaluated. Build one with
/// [`Self::arm`] (explicit), [`Self::seeded`] (reproducibly random), or
/// [`Self::parse`] (CLI spec); hand it to a [`FaultInjector`] to run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    /// Per [`FaultPoint::index`]: sorted, deduplicated firing indices.
    occurrences: [Vec<u64>; FAULT_POINTS.len()],
}

impl FaultSchedule {
    /// A schedule that never fires anything.
    pub fn empty() -> Self {
        FaultSchedule::default()
    }

    /// Arm one occurrence of one point (builder style; duplicates are
    /// collapsed).
    pub fn arm(mut self, point: FaultPoint, occurrence: u64) -> Self {
        let v = &mut self.occurrences[point.index()];
        if let Err(pos) = v.binary_search(&occurrence) {
            v.insert(pos, occurrence);
        }
        self
    }

    /// A reproducibly random schedule: for every fault point, draw
    /// `per_class` distinct occurrence indices. The retrain-side points
    /// (`retrain-panic`, `adopt-corruption`) draw from
    /// `0..retrain_window` (retrain *attempts*); `update-burst` draws
    /// from `0..update_window` (churn *steps*). The same
    /// `(seed, windows)` always yields the same schedule — that is the
    /// whole point.
    pub fn seeded(seed: u64, per_class: usize, retrain_window: u64, update_window: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut schedule = FaultSchedule::empty();
        for point in FAULT_POINTS {
            let window = match point {
                FaultPoint::UpdateBurst => update_window,
                _ => retrain_window,
            }
            .max(1);
            let want = (per_class as u64).min(window) as usize;
            while schedule.occurrences[point.index()].len() < want {
                let occ = rng.gen_range(0..window);
                schedule = schedule.arm(point, occ);
            }
        }
        schedule
    }

    /// Parse a CLI spec: `;`-separated `point@occ[,occ...]` clauses,
    /// e.g. `"retrain-panic@0,2;update-burst@5"`. Errors are typed
    /// ([`FaultParseError`]) and name the offending token.
    pub fn parse(spec: &str) -> Result<Self, FaultParseError> {
        let mut schedule = FaultSchedule::empty();
        for clause in spec.split(';').filter(|c| !c.trim().is_empty()) {
            let (name, occs) = clause
                .split_once('@')
                .ok_or_else(|| FaultParseError::MissingAt { clause: clause.to_string() })?;
            let point = FaultPoint::from_name(name.trim())
                .ok_or_else(|| FaultParseError::UnknownPoint { token: name.trim().to_string() })?;
            for occ in occs.split(',') {
                let occ: u64 = occ.trim().parse().map_err(|_| FaultParseError::BadOccurrence {
                    token: occ.trim().to_string(),
                    clause: clause.to_string(),
                })?;
                schedule = schedule.arm(point, occ);
            }
        }
        Ok(schedule)
    }

    /// True when nothing is armed.
    pub fn is_empty(&self) -> bool {
        self.occurrences.iter().all(Vec::is_empty)
    }

    /// Occurrences armed for `point`.
    pub fn armed(&self, point: FaultPoint) -> &[u64] {
        &self.occurrences[point.index()]
    }

    /// Wrap into a runtime injector.
    pub fn injector(self) -> FaultInjector {
        FaultInjector::new(self)
    }
}

impl std::fmt::Display for FaultSchedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for point in FAULT_POINTS {
            let occs = self.armed(point);
            if occs.is_empty() {
                continue;
            }
            if !first {
                f.write_str(";")?;
            }
            first = false;
            let list: Vec<String> = occs.iter().map(u64::to_string).collect();
            write!(f, "{}@{}", point.name(), list.join(","))?;
        }
        if first {
            f.write_str("(none)")?;
        }
        Ok(())
    }
}

/// A [`FaultSchedule`] armed for runtime: per-point evaluation counters
/// decide which calls to [`Self::should_fire`] actually fire. Share it
/// (`Arc`) between the lifecycle worker and the update thread; each
/// point must only ever be evaluated from one thread (module docs).
#[derive(Debug)]
pub struct FaultInjector {
    schedule: FaultSchedule,
    evals: [AtomicU64; FAULT_POINTS.len()],
    fired: [AtomicU64; FAULT_POINTS.len()],
}

impl FaultInjector {
    /// Arm a schedule.
    pub fn new(schedule: FaultSchedule) -> Self {
        FaultInjector {
            schedule,
            evals: [const { AtomicU64::new(0) }; FAULT_POINTS.len()],
            fired: [const { AtomicU64::new(0) }; FAULT_POINTS.len()],
        }
    }

    /// Evaluate `point` once: advances its occurrence counter and
    /// reports whether this occurrence is armed. The caller then
    /// performs the fault (panic, corruption, burst) —
    /// the injector only decides *when*.
    pub fn should_fire(&self, point: FaultPoint) -> bool {
        let i = point.index();
        let occurrence = self.evals[i].fetch_add(1, Ordering::Relaxed);
        let hit = self.schedule.occurrences[i].binary_search(&occurrence).is_ok();
        if hit {
            self.fired[i].fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// The schedule this injector runs.
    pub fn schedule(&self) -> &FaultSchedule {
        &self.schedule
    }

    /// Times `point` has been evaluated so far.
    pub fn evaluated(&self, point: FaultPoint) -> u64 {
        self.evals[point.index()].load(Ordering::Relaxed)
    }

    /// Times `point` actually fired so far.
    pub fn fired(&self, point: FaultPoint) -> u64 {
        self.fired[point.index()].load(Ordering::Relaxed)
    }

    /// Faults fired across every point.
    pub fn total_fired(&self) -> u64 {
        FAULT_POINTS.iter().map(|&p| self.fired(p)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn armed_occurrences_fire_exactly_once_each() {
        let inj = FaultSchedule::empty()
            .arm(FaultPoint::RetrainPanic, 1)
            .arm(FaultPoint::RetrainPanic, 3)
            .injector();
        let fired: Vec<bool> = (0..6).map(|_| inj.should_fire(FaultPoint::RetrainPanic)).collect();
        assert_eq!(fired, vec![false, true, false, true, false, false]);
        assert_eq!(inj.fired(FaultPoint::RetrainPanic), 2);
        assert_eq!(inj.evaluated(FaultPoint::RetrainPanic), 6);
        assert_eq!(inj.total_fired(), 2, "every armed occurrence fired");
        assert_eq!(inj.fired(FaultPoint::UpdateBurst), 0, "points are independent");
    }

    #[test]
    fn seeded_schedules_are_reproducible_and_sized() {
        let a = FaultSchedule::seeded(17, 2, 6, 100);
        let b = FaultSchedule::seeded(17, 2, 6, 100);
        assert_eq!(a, b, "same seed, same schedule");
        let c = FaultSchedule::seeded(18, 2, 6, 100);
        assert_ne!(a, c, "different seed, different schedule");
        for point in FAULT_POINTS {
            assert_eq!(a.armed(point).len(), 2, "{point}: two occurrences per class");
            let window = match point {
                FaultPoint::UpdateBurst => 100,
                _ => 6,
            };
            assert!(a.armed(point).iter().all(|&o| o < window));
        }
        // A window smaller than per_class clamps instead of spinning.
        let tiny = FaultSchedule::seeded(17, 5, 2, 2);
        for point in FAULT_POINTS {
            assert_eq!(tiny.armed(point).len(), 2);
        }
    }

    #[test]
    fn parse_round_trips_and_rejects_garbage() {
        let s = FaultSchedule::parse("retrain-panic@0,2; update-burst@5").unwrap();
        assert_eq!(s.armed(FaultPoint::RetrainPanic), &[0, 2]);
        assert_eq!(s.armed(FaultPoint::UpdateBurst), &[5]);
        assert!(s.armed(FaultPoint::AdoptCorruption).is_empty());
        let shown = s.to_string();
        assert_eq!(FaultSchedule::parse(&shown).unwrap(), s, "display round-trips");
        assert!(FaultSchedule::parse("").unwrap().is_empty());
        assert_eq!(FaultSchedule::empty().to_string(), "(none)");
    }

    #[test]
    fn parse_errors_name_the_offending_token() {
        match FaultSchedule::parse("no-such-fault@1") {
            Err(FaultParseError::UnknownPoint { token }) => {
                assert_eq!(token, "no-such-fault");
            }
            other => panic!("expected UnknownPoint, got {other:?}"),
        }
        match FaultSchedule::parse("retrain-panic@0;adopt-corruption@x") {
            Err(FaultParseError::BadOccurrence { token, clause }) => {
                assert_eq!(token, "x");
                assert_eq!(clause, "adopt-corruption@x");
            }
            other => panic!("expected BadOccurrence, got {other:?}"),
        }
        match FaultSchedule::parse("retrain-panic") {
            Err(FaultParseError::MissingAt { clause }) => {
                assert_eq!(clause, "retrain-panic");
            }
            other => panic!("expected MissingAt, got {other:?}"),
        }
        // Every error's Display names its token.
        let err = FaultSchedule::parse("update-brust@1").unwrap_err();
        assert!(err.to_string().contains("update-brust"), "{err}");
        assert!(err.to_string().contains("update-burst"), "suggests the known names: {err}");
    }

    #[test]
    fn every_point_parses_by_display_name() {
        let mut schedule = FaultSchedule::empty();
        for (i, point) in FAULT_POINTS.into_iter().enumerate() {
            schedule = schedule.arm(point, i as u64);
        }
        let reparsed = FaultSchedule::parse(&schedule.to_string()).unwrap();
        assert_eq!(reparsed, schedule);
    }

    #[test]
    fn names_round_trip() {
        for point in FAULT_POINTS {
            assert_eq!(FaultPoint::from_name(point.name()), Some(point));
        }
        assert_eq!(FaultPoint::from_name("nope"), None);
    }
}
