//! Tests of the harness itself: the statistics it reports with, the
//! traffic it generates, and the checks it applies to the system.

use cedar_benchmark::compare::{judge, Verdict};
use cedar_benchmark::exec::{listing_mismatches, model_listing, replay_into};
use cedar_benchmark::gen::{Sizing, Workload, Zipf, PROBE_BYTES};
use cedar_benchmark::json::Json;
use cedar_benchmark::recover::{crash_and_recover, lost_acked, Crash};
use cedar_benchmark::sim::{build, sim_pass};
use cedar_benchmark::stats::{best, median, quartiles, spread, tail, Windows};
use cedar_workload::rng::WorkloadRng;
use cedar_workload::MemFs;
use std::collections::HashSet;

// ----- statistics -----------------------------------------------------------

#[test]
fn median_and_quartiles_match_pythons_statistics_module() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), (2.75, 8.25));
    assert!((spread(&ten) - 1.0).abs() < 1e-12);
    // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
    assert_eq!(quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]), (15.0, 45.0));
    assert_eq!(spread(&[7.0]), 0.0);
}

#[test]
fn best_of_n_and_its_lead_over_the_next_sample() {
    let fastest = best(&[1.5, 1.2, 2.0], 1, false);
    assert_eq!(fastest.value, 1.2);
    assert!((fastest.lead - 0.25).abs() < 1e-12);
    // The three busiest windows average 800; the fourth is 5 % behind.
    let busiest = best(&[700.0, 790.0, 810.0, 760.0, 800.0], 3, true);
    assert_eq!(busiest.value, 800.0);
    assert!((busiest.lead - 0.05).abs() < 1e-12);
    // Nothing further down to lead.
    assert_eq!(
        best(&[3.0, 5.0], 3, true),
        cedar_benchmark::stats::Best {
            value: 4.0,
            lead: 0.0
        }
    );
    assert_eq!(best(&[], 3, false).value, 0.0);
}

#[test]
fn tail_keeps_ten_samples_beyond_the_percentile_it_reports() {
    // 1000 samples: p99 is rank 990, with exactly ten beyond it.
    let mut thousand: Vec<u64> = (1..=1000).collect();
    let t = tail(&mut thousand, 0.99);
    assert_eq!((t.value, t.samples), (990, 1000));
    assert!((t.percentile - 0.99).abs() < 1e-12);
    // 400 samples cannot support p99: the report drops to rank 390.
    let mut fewer: Vec<u64> = (1..=400).rev().collect();
    let t = tail(&mut fewer, 0.99);
    assert_eq!(t.value, 390);
    assert!((t.percentile - 0.975).abs() < 1e-12);
    // Too few for any tail: the median.
    let mut handful: Vec<u64> = (1..=15).collect();
    assert_eq!(tail(&mut handful, 0.99).value, 8);
    assert_eq!(tail(&mut [], 0.99).samples, 0);
}

#[test]
fn window_counter_ignores_ops_that_straddle_an_edge() {
    let w = Windows {
        warmup_ns: 100,
        len_ns: 50,
        count: 3,
    };
    assert_eq!(w.end_ns(), 250);
    assert_eq!(w.index(100, 149), Some(0));
    assert_eq!(w.index(150, 150), Some(1));
    assert_eq!(w.index(210, 249), Some(2));
    // Began in the warm-up, ended in a window; astride two windows; ended
    // on or past the closing edge.
    assert_eq!(w.index(99, 120), None);
    assert_eq!(w.index(140, 160), None);
    assert_eq!(w.index(240, 250), None);
    assert_eq!(w.index(260, 270), None);
}

// ----- generated traffic ----------------------------------------------------

#[test]
fn zipf_is_deterministic_in_range_and_head_heavy() {
    let zipf = Zipf::new(1000, 0.9);
    let draw = |seed| {
        let mut rng = WorkloadRng::new(seed);
        (0..20_000)
            .map(|_| zipf.rank(rng.unit()))
            .collect::<Vec<_>>()
    };
    let ranks = draw(5);
    assert_eq!(ranks, draw(5));
    assert_ne!(ranks, draw(6));
    assert!(ranks.iter().all(|&r| r < 1000));
    let count = |r| ranks.iter().filter(|&&x| x == r).count();
    assert!(
        count(0) > count(9) && count(9) > count(99),
        "rank 0 must lead"
    );
    assert_eq!(zipf.rank(0.0), 0);
    assert_eq!(zipf.rank(0.999_999_999), 999);
}

#[test]
fn every_generator_is_deterministic_per_seed() {
    for w in Workload::ALL {
        let stream = |seed| {
            let population = w.population(seed, Sizing::SMOKE);
            let mut client = w.client(seed, Sizing::SMOKE, &population, 1, 2);
            (0..500).map(|_| client.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(stream(11), stream(11), "{}", w.name());
        assert_ne!(stream(11), stream(12), "{}", w.name());
        assert_eq!(
            w.fingerprint(11, Sizing::SMOKE),
            w.fingerprint(11, Sizing::SMOKE)
        );
        assert_ne!(
            w.fingerprint(11, Sizing::SMOKE),
            w.fingerprint(12, Sizing::SMOKE)
        );
    }
}

#[test]
fn the_full_size_seed_1987_traffic_is_the_traffic_the_benchmark_was_defined_with() {
    for w in Workload::ALL {
        assert_eq!(
            w.fingerprint(1987, Sizing::FULL),
            w.fingerprint_1987(),
            "{}: a generator changed; every recorded number is void",
            w.name()
        );
    }
}

#[test]
fn every_generator_is_stationary() {
    for w in Workload::ALL {
        let sizing = Sizing::SMOKE;
        let population = w.population(3, sizing);
        let mut client = w.client(3, sizing, &population, 0, 1);
        let mut model = MemFs::default();
        replay_into(&mut model, population.iter().cloned());
        // Let bulk_stream fill its live set before watching it.
        replay_into(&mut model, (0..400).map(|_| client.next_op().step));
        let (mut fewest, mut most, mut most_bytes) = (usize::MAX, 0, 0);
        for _ in 0..3_000 {
            replay_into(&mut model, [client.next_op().step]);
            let listing = model_listing(&mut model);
            fewest = fewest.min(listing.len());
            most = most.max(listing.len());
            most_bytes = most_bytes.max(listing.iter().map(|i| i.bytes).sum::<u64>());
        }
        if w == Workload::BulkStream {
            // Files differ in size eightfold, so the count breathes; the
            // bytes held may exceed the budget by at most the file that
            // tipped it over (and the probe file every population has).
            let budget = (48u64 << 20) / sizing.div as u64;
            let largest = (2u64 << 20) / sizing.div as u64;
            assert!(
                most_bytes <= budget + largest + PROBE_BYTES,
                "{most_bytes} bytes live"
            );
            assert!(fewest * 3 > most, "live files ranged {fewest}..{most}");
        } else {
            assert!(
                most - fewest <= 2,
                "{}: live files ranged {fewest}..{most}",
                w.name()
            );
        }
    }
}

#[test]
fn clients_own_disjoint_names() {
    for w in Workload::ALL {
        let population = w.population(9, Sizing::SMOKE);
        let mut written = [HashSet::new(), HashSet::new()];
        for (c, names) in written.iter_mut().enumerate() {
            let mut client = w.client(9, Sizing::SMOKE, &population, c, 2);
            for _ in 0..2_000 {
                let op = client.next_op();
                if cedar_benchmark::exec::is_write(&op.step) {
                    names.insert(cedar_benchmark::exec::name_of(&op.step).to_string());
                }
            }
        }
        assert!(written[0].is_disjoint(&written[1]), "{}", w.name());
    }
}

// ----- the passes, at SimDisk::tiny() scale ---------------------------------

#[test]
fn two_sim_passes_give_identical_results() {
    let pass = || {
        let mut built = build(Workload::MailChurn, 21, Sizing::TINY, 1).unwrap();
        let ops = Workload::MailChurn.sim_ops(Sizing::TINY);
        sim_pass(built.vol, &mut *built.clients[0], ops, None).0
    };
    let (a, b) = (pass(), pass());
    assert_eq!(a.failed, 0, "{:?}", a.first_error);
    assert!(a.window.clock_us > 0 && a.window.disk.total_ops() > 0);
    assert_eq!(a.window, b.window);
    assert_eq!(a.latencies_us, b.latencies_us);
    assert_eq!(
        (a.created, a.read, a.free_at_end),
        (b.created, b.read, b.free_at_end)
    );
    assert_eq!(a.listing, b.listing);
    // The five parts account for every simulated microsecond.
    assert_eq!(a.window.accounted_us(), a.window.clock_us);
}

#[test]
fn sim_pass_listing_matches_the_memfs_replay() {
    let mut built = build(Workload::ReadMostly, 4, Sizing::TINY, 1).unwrap();
    let (pass, _vol) = sim_pass(built.vol, &mut *built.clients[0], 200, None);
    assert_eq!(pass.failed, 0, "{:?}", pass.first_error);
    let mut model = MemFs::default();
    replay_into(&mut model, built.population.iter().cloned());
    replay_into(&mut model, pass.steps.iter().cloned());
    let expected = model_listing(&mut model);
    assert_eq!(listing_mismatches(&expected, &pass.listing), 0);
    // One file fewer on either side is one mismatch.
    assert_eq!(listing_mismatches(&expected[1..], &pass.listing), 1);
    assert_eq!(
        listing_mismatches(&expected, &pass.listing[..pass.listing.len() - 1]),
        1
    );
}

#[test]
fn crash_boot_loses_nothing_acknowledged_and_a_dropped_file_is_caught() {
    let w = Workload::CrashBoot;
    let mut built = build(w, 8, Sizing::TINY, 1).unwrap();
    let (pass, vol) = sim_pass(
        built.vol,
        &mut *built.clients[0],
        w.sim_ops(Sizing::TINY),
        None,
    );
    assert_eq!(pass.failed, 0, "{:?}", pass.first_error);
    let crash = Crash::TornForce(&mut *built.clients[0]);
    let rec = crash_and_recover(vol, built.cfg, &pass.listing, crash, 2, None);
    assert_eq!(rec.failed, 0, "{:?}", rec.first_error);
    assert_eq!(rec.lost_acked, 0);
    assert!(rec.boot_us > 0 && rec.first_read_us > 0 && rec.first_write_us > 0);
    assert!(rec.boot_us >= rec.report.total_us());
    assert_eq!(rec.host_boot_ms.len(), 2);

    // The check itself: drop one acknowledged file from what "recovered".
    let nothing_in_flight = HashSet::new();
    assert_eq!(
        lost_acked(&pass.listing, &pass.listing, &nothing_in_flight),
        0
    );
    assert_eq!(
        lost_acked(&pass.listing, &pass.listing[1..], &nothing_in_flight),
        1
    );
    // Unless the crash caught it in flight.
    let in_flight = HashSet::from([pass.listing[0].name.clone()]);
    assert_eq!(lost_acked(&pass.listing, &pass.listing[1..], &in_flight), 0);
}

#[test]
fn a_clean_power_cut_recovers_too() {
    let mut built = build(Workload::ReadMostly, 2, Sizing::TINY, 1).unwrap();
    let (pass, vol) = sim_pass(built.vol, &mut *built.clients[0], 60, None);
    assert_eq!(pass.failed, 0, "{:?}", pass.first_error);
    let rec = crash_and_recover(vol, built.cfg, &pass.listing, Crash::Clean, 1, None);
    assert_eq!(
        (rec.failed, rec.lost_acked),
        (0, 0),
        "{:?}",
        rec.first_error
    );
    assert!(rec.report.vam_reconstructed);
}

// ----- files and verdicts ---------------------------------------------------

#[test]
fn json_round_trips() {
    let text = r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\"y\n", "d": null, "e": true}, "f": []}"#;
    let doc = Json::parse(text).unwrap();
    assert_eq!(doc.get("a").unwrap().as_arr()[2].as_f64(), Some(-300.0));
    assert_eq!(
        doc.get("b").unwrap().get("c").unwrap().as_str(),
        Some("x\"y\n")
    );
    assert_eq!(Json::parse(&doc.to_string()).unwrap(), doc);
    // Every digit of a measurement survives.
    let v = 1.203_456_789_012_345_6_f64;
    assert_eq!(
        Json::parse(&Json::Num(v).to_string()).unwrap().as_f64(),
        Some(v)
    );
    assert!(Json::parse("{\"a\": 1,}").is_err());
    assert!(Json::parse("[1] 2").is_err());
}

#[test]
fn comparator_verdicts() {
    // Simulated clock, same seed: exact or nothing.
    assert_eq!(
        judge(true, false, 0.05, 34.5, 34.5, 0.0),
        Verdict::Identical
    );
    assert_eq!(
        judge(true, false, 0.05, 34.5, 34.500_001, 0.0),
        Verdict::Differs
    );
    // Host clock: within the bound in the metric's own direction.
    assert_eq!(
        judge(false, true, 0.10, 1000.0, 950.0, 0.02),
        Verdict::Within
    );
    assert_eq!(
        judge(false, true, 0.10, 1000.0, 880.0, 0.02),
        Verdict::Worse
    );
    assert_eq!(
        judge(false, true, 0.10, 1000.0, 1500.0, 0.02),
        Verdict::Within
    );
    assert_eq!(judge(false, false, 0.10, 10.0, 11.5, 0.02), Verdict::Worse);
    // The best sample stands further from its runner-up than the bound
    // allows: no verdict either way.
    assert_eq!(
        judge(false, true, 0.10, 1000.0, 990.0, 0.15),
        Verdict::Unresolved
    );
    assert!(!Verdict::Unresolved.agrees() && Verdict::Within.agrees());
}
