//! The serve-mix job schedule, generated from the seed alone.
//!
//! Jobs come in rounds of [`ROUND`]: a seeded permutation of six jobs on
//! hot geometries shared across the run (plan-cache hits), one job on a
//! geometry no other job uses (a miss that evicts), two 64² jobs, and one
//! `hops` + `wgcv-lsqr` job that takes the serial engine path. The seed
//! permutes the jobs of each round and draws the arrival times; every
//! round holds the same jobs, so the work does not depend on it. Every round
//! touches every hot geometry, and the cache keeps room for three one-off
//! plans, so the evicted plan is always a one-off one and the hit and miss
//! counts are the same for every interleaving of the two workers. The
//! 32² classes, whose latencies are alike, are 80% of the mix and the
//! slow 64² class 20%, so the median falls inside the fast group and the
//! 90th percentile in the middle of the slow class, never on the boundary
//! between class modes.

use crate::seed::{self, ARRIVALS, MIX};
use rand::rngs::StdRng;
use rand::Rng;

/// Job classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// A shared geometry: cached after its first build.
    Hot,
    /// A geometry used once: always a plan-cache miss.
    OneOff,
    /// The 64² geometry.
    Big,
    /// Frequency hopping with the hybrid regularizer (serial engine path).
    Hop,
}

/// One round of the mix before shuffling.
pub const ROUND: [Class; 10] = [
    Class::Hot,
    Class::Hot,
    Class::Hot,
    Class::Hot,
    Class::Hot,
    Class::Hot,
    Class::OneOff,
    Class::Big,
    Class::Big,
    Class::Hop,
];
/// Backlog bursts per run; `solve_s` is their median.
pub const BURSTS: usize = 5;
/// Rounds in each backlog burst.
pub const BURST_ROUNDS: usize = 3;
/// Rounds in the open-loop phase.
pub const OPEN_ROUNDS: usize = 10;
/// Open-loop arrival rate (jobs/s): about a quarter of the burst capacity.
/// Queueing amplifies every slowdown of the host (a shared two-core VM
/// whose speed swings within seconds) into the latency tail: at half of
/// capacity the percentiles spread 0.2-0.5 from run to run, at 3/s the
/// 90th percentile still spread 0.28-0.37, at 2.5/s it stays under 0.1.
pub const RATE: f64 = 2.5;
/// `(size, tx, rx)` of the hot geometries.
pub const HOT: [(usize, usize, usize); 2] = [(32, 4, 8), (32, 8, 16)];
/// The hot geometry and phantom of each hot job of a round, before
/// shuffling: the same work every round, whatever the seed.
const HOT_SLOTS: [(usize, &str); 6] = [
    (0, "cylinder"),
    (0, "annulus"),
    (0, "cylinder"),
    (1, "annulus"),
    (1, "cylinder"),
    (1, "annulus"),
];
/// Plan-cache capacity: every hot geometry, the 64² one, and three
/// one-off plans.
pub const PLAN_CACHE_CAPACITY: usize = HOT.len() + 1 + 3;
/// DBIM iterations of every job.
const ITERATIONS: usize = 2;

/// One scheduled job.
#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    /// Job id.
    pub id: String,
    /// Its class.
    pub class: Class,
    /// The submit `job` object, as JSON text.
    pub spec: String,
    /// Everything in the spec except the id: jobs with equal keys must
    /// return identical images.
    pub key: String,
    /// Seconds after the phase start at which the job is due (0 in the
    /// burst).
    pub due_s: f64,
}

/// The whole schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct Mix {
    /// [`BURSTS`] backlogs of [`BURST_ROUNDS`] rounds, each submitted back
    /// to back once the previous one finished.
    pub burst: Vec<Job>,
    /// Submitted open-loop at seeded Poisson arrival times.
    pub open: Vec<Job>,
}

/// The schedule for `seed`.
pub fn mix(seed: u64) -> Mix {
    let mut rng = seed::stream(seed, MIX);
    let mut one_off = 0usize;
    let mut phase = |prefix: &str, rounds: usize, rng: &mut StdRng| {
        let mut jobs = Vec::with_capacity(rounds * ROUND.len());
        for _ in 0..rounds {
            let mut order = ROUND;
            seed::shuffle(rng, &mut order);
            let mut hot_slots = HOT_SLOTS;
            seed::shuffle(rng, &mut hot_slots);
            let mut hot_seen = 0usize;
            for class in order {
                let key = match class {
                    Class::Hot => {
                        let (g, phantom) = hot_slots[hot_seen];
                        hot_seen += 1;
                        let (size, tx, rx) = HOT[g];
                        spec_body(size, tx, rx, phantom, "")
                    }
                    Class::OneOff => {
                        one_off += 1;
                        let arc = format!(r#","arc_deg":{}"#, 180 + one_off);
                        spec_body(32, 4, 8, "cylinder", &arc)
                    }
                    Class::Big => spec_body(64, 2, 4, "cylinder", ""),
                    Class::Hop => spec_body(
                        32,
                        4,
                        8,
                        "cylinder",
                        r#","hops":"2.0,1.0","regularizer":"wgcv-lsqr:6:0.8""#,
                    ),
                };
                let id = format!("{prefix}{}", jobs.len());
                jobs.push(Job {
                    spec: format!(r#"{{"id":"{id}",{key}}}"#),
                    id,
                    class,
                    key,
                    due_s: 0.0,
                });
            }
        }
        jobs
    };
    let burst = phase("b", BURSTS * BURST_ROUNDS, &mut rng);
    let mut open = phase("o", OPEN_ROUNDS, &mut rng);
    // A Poisson process conditioned on its count: the arrival times are
    // sorted uniform draws over the phase, so every seed offers the same
    // average rate and only the clustering of arrivals varies.
    let span = open.len() as f64 / RATE;
    let mut arrivals = seed::stream(seed, ARRIVALS);
    let mut due: Vec<f64> = open.iter().map(|_| arrivals.gen::<f64>() * span).collect();
    due.sort_by(f64::total_cmp);
    for (job, t) in open.iter_mut().zip(due) {
        job.due_s = t;
    }
    Mix { burst, open }
}

fn spec_body(size: usize, tx: usize, rx: usize, phantom: &str, extra: &str) -> String {
    format!(
        r#""size":{size},"tx":{tx},"rx":{rx},"phantom":"{phantom}","iterations":{ITERATIONS},"noise_db":40{extra}"#
    )
}
