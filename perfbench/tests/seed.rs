//! Seed plumbing: a seed reproduces the same job order and arrival
//! schedule, and two seeds give different ones.

use ffw_perfbench::mix::{mix, Class, BURSTS, BURST_ROUNDS, HOT, OPEN_ROUNDS, RATE, ROUND};
use ffw_perfbench::seed::noise_seed;
use std::collections::BTreeSet;

#[test]
fn a_seed_reproduces_its_mix_and_schedule() {
    assert_eq!(mix(7), mix(7));
    assert_eq!(noise_seed(7), noise_seed(7));
}

#[test]
fn two_seeds_give_different_mixes_and_schedules() {
    let (a, b) = (mix(7), mix(8));
    let classes = |m: &ffw_perfbench::mix::Mix| m.open.iter().map(|j| j.class).collect::<Vec<_>>();
    let keys =
        |m: &ffw_perfbench::mix::Mix| m.burst.iter().map(|j| j.key.clone()).collect::<Vec<_>>();
    let dues = |m: &ffw_perfbench::mix::Mix| m.open.iter().map(|j| j.due_s).collect::<Vec<_>>();
    assert_ne!(classes(&a), classes(&b));
    assert_ne!(keys(&a), keys(&b));
    assert_ne!(dues(&a), dues(&b));
    assert_ne!(noise_seed(7), noise_seed(8));
}

#[test]
fn every_round_has_the_fixed_class_shares_and_touches_every_hot_geometry() {
    for seed in [1, 2, 3] {
        let m = mix(seed);
        assert_eq!(m.burst.len(), BURSTS * BURST_ROUNDS * ROUND.len());
        assert_eq!(m.open.len(), OPEN_ROUNDS * ROUND.len());
        for round in m
            .burst
            .chunks(ROUND.len())
            .chain(m.open.chunks(ROUND.len()))
        {
            let mut classes: Vec<Class> = round.iter().map(|j| j.class).collect();
            classes.sort();
            let mut expected = ROUND.to_vec();
            expected.sort();
            assert_eq!(classes, expected);
            for (size, tx, rx) in HOT {
                let geometry = format!(r#""size":{size},"tx":{tx},"rx":{rx},"#);
                assert!(
                    round
                        .iter()
                        .any(|j| j.class == Class::Hot && j.key.starts_with(&geometry)),
                    "a round misses hot geometry {geometry}"
                );
            }
        }
        let one_offs: Vec<&str> = m
            .burst
            .iter()
            .chain(&m.open)
            .filter(|j| j.class == Class::OneOff)
            .map(|j| j.key.as_str())
            .collect();
        let distinct: BTreeSet<&str> = one_offs.iter().copied().collect();
        assert_eq!(distinct.len(), one_offs.len(), "one-off geometries repeat");
    }
}

#[test]
fn arrivals_are_increasing_and_offer_the_configured_rate() {
    let m = mix(11);
    assert!(m.burst.iter().all(|j| j.due_s == 0.0));
    assert!(m.open.windows(2).all(|w| w[0].due_s <= w[1].due_s));
    let span = m.open.len() as f64 / RATE;
    assert!(m.open.iter().all(|j| (0.0..span).contains(&j.due_s)));
    // Sorted uniform arrivals: the last one lands near the end of the span.
    assert!(m.open.last().expect("jobs").due_s > 0.9 * span);
}
