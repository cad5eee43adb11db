//! Fixed-seed determinism of the bench areas.
//!
//! The regression gate judges `current mean ÷ baseline mean` per label, so
//! two runs at the same seed and scale must execute the *same work*: same
//! labels in the same order, same declared element counts, same sample
//! structure. Only the timings may differ. If this test breaks, BENCH
//! diffs stop isolating perf movement and start reflecting input drift.

use phigraph_bench::areas::AreaOpts;
use phigraph_bench::perf::AREAS;
use phigraph_bench::runner::measure;

#[test]
fn two_same_seed_smoke_runs_have_identical_structure() {
    let areas: Vec<String> = AREAS.iter().map(|s| s.to_string()).collect();
    let opts = AreaOpts {
        smoke: true,
        seed: 42,
        samples: Some(1),
        warmup: Some(0),
    };
    let a = measure(&areas, &opts).expect("first run");
    let b = measure(&areas, &opts).expect("second run");
    assert_eq!(a.len(), b.len());
    for (ra, rb) in a.iter().zip(&b) {
        assert_eq!(ra.area, rb.area);
        assert_eq!(ra.env, rb.env, "fingerprints match on one host");
        assert_eq!(
            ra.entries.len(),
            rb.entries.len(),
            "area {}: entry counts differ",
            ra.area
        );
        for (ea, eb) in ra.entries.iter().zip(&rb.entries) {
            assert_eq!(ea.label, eb.label, "area {}: labels diverge", ra.area);
            assert_eq!(
                ea.elements, eb.elements,
                "{}: element counts diverge across same-seed runs",
                ea.label
            );
            assert_eq!(
                ea.samples, eb.samples,
                "{}: sample counts diverge",
                ea.label
            );
            assert_eq!(ea.warmup_iters, eb.warmup_iters);
        }
    }
}

#[test]
fn different_seeds_still_produce_the_same_labels() {
    // Labels and entry structure are scale-derived, not seed-derived: a
    // re-seeded baseline still lines up label-for-label in `compare`.
    let areas = vec!["csb".to_string(), "partition".to_string()];
    let mk = |seed| AreaOpts {
        smoke: true,
        seed,
        samples: Some(1),
        warmup: Some(0),
    };
    let a = measure(&areas, &mk(1)).expect("seed 1");
    let b = measure(&areas, &mk(2)).expect("seed 2");
    for (ra, rb) in a.iter().zip(&b) {
        let la: Vec<_> = ra.entries.iter().map(|e| &e.label).collect();
        let lb: Vec<_> = rb.entries.iter().map(|e| &e.label).collect();
        assert_eq!(la, lb, "area {}", ra.area);
    }
}
