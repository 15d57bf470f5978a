//! Robustness in the error-prone environment: benign impairments
//! (packet loss, packet-in loss, transient flow-mod failures) must
//! neither blame healthy switches — once confirmation retries are on —
//! nor mask persistent faults, and the chaos stream itself must be a
//! pure function of the seed, so reports stay bit-identical at any
//! thread count. See DESIGN.md § Error-prone environment.

use rand::Rng;
use sdnprobe::{accuracy, generate, DetectionReport, Parallelism, ProbeConfig, SdnProbe};
use sdnprobe_dataplane::Impairments;
use sdnprobe_integration::check;
use sdnprobe_rulegraph::RuleGraph;
use sdnprobe_workloads::{
    chaos_case, inject_random_basic_faults, BasicFaultMix, SyntheticNetwork, TopologyCase,
};

fn config(confirm_retries: u32, threads: Option<usize>) -> ProbeConfig {
    ProbeConfig {
        confirm_retries,
        parallelism: Parallelism { threads },
        ..ProbeConfig::default()
    }
}

fn build(seed: u64) -> SyntheticNetwork {
    chaos_case(seed).build()
}

/// Wall-clock plan-generation time is the one nondeterministic report
/// field; everything else must be reproducible.
fn canonical(mut report: DetectionReport) -> DetectionReport {
    report.generation_ns = 0;
    report
}

const CASES: u32 = 8;

/// A healthy network probed through a lossy environment (up to 20 %
/// loss on every link and on the controller channel) is never
/// flagged, as long as failed probes are re-confirmed at least
/// twice before raising suspicion.
#[test]
fn lossy_healthy_network_is_never_flagged() {
    check(CASES, 1, |rng| {
        let seed = rng.gen_range(0u64..500);
        let loss_pct = rng.gen_range(0u32..=20);
        let confirm = rng.gen_range(2u32..=4);
        let loss = f64::from(loss_pct) / 100.0;
        let mut sn = build(seed);
        sn.network.set_impairments(
            Impairments::new(seed ^ 0xC4A05)
                .with_loss_rate(loss)
                .with_ctrl_loss_rate(loss),
        );
        let report = SdnProbe::with_config(config(confirm, None))
            .detect(&mut sn.network)
            .expect("detect");
        assert!(
            report.faulty_switches.is_empty(),
            "benign loss {loss_pct}% blamed {:?} (seed {seed}, confirm {confirm})",
            report.faulty_switches
        );
    });
}

/// Persistent drop faults stay exactly localized under 10 % benign
/// loss: confirmation retries absorb the environment without
/// absorbing the fault (a real drop fails every re-send too).
#[test]
fn drop_faults_stay_localized_under_loss() {
    check(CASES, 2, |rng| {
        let seed = rng.gen_range(0u64..500);
        let loss_pct = rng.gen_range(0u32..=10);
        let confirm = rng.gen_range(2u32..=3);
        let loss = f64::from(loss_pct) / 100.0;
        let mut sn = build(seed);
        inject_random_basic_faults(&mut sn, 0.05, BasicFaultMix::DropOnly, seed);
        sn.network.set_impairments(
            Impairments::new(seed ^ 0xFA117)
                .with_loss_rate(loss)
                .with_ctrl_loss_rate(loss),
        );
        let report = SdnProbe::with_config(config(confirm, None))
            .detect(&mut sn.network)
            .expect("detect");
        let acc = accuracy(&sn.network, &report.faulty_switches);
        assert_eq!(
            acc.false_positive_rate, 0.0,
            "seed {seed} loss {loss_pct}%: flagged {:?}",
            report.faulty_switches
        );
        assert_eq!(
            acc.false_negative_rate, 0.0,
            "seed {seed} loss {loss_pct}%: flagged {:?}",
            report.faulty_switches
        );
    });
}

/// The acceptance pin: at 10 % loss on healthy Rocketfuel-like
/// networks, the loss-naive loop (`confirm_retries = 0`) blames a benign
/// switch on at least one of a fixed range of seeds, while two
/// confirmation re-sends keep the report clean on every one of them.
/// Loss is applied to links *and* the controller channel: single-rule
/// probes are punted at their own switch (zero link traversals), so the
/// packet-in path is where benign loss can reach the flagging decision.
/// This is the measurable payoff of the loss-tolerant loop;
/// EXPERIMENTS.md records the full sweep.
#[test]
fn confirmation_retries_separate_loss_from_faults() {
    let mut naive_blamed = Vec::new();
    for seed in 40_000u64..40_016 {
        let chaos = Impairments::new(seed ^ 0x5eed)
            .with_loss_rate(0.1)
            .with_ctrl_loss_rate(0.1);

        let mut naive = build(seed);
        naive.network.set_impairments(chaos);
        let report = SdnProbe::with_config(config(0, None))
            .detect(&mut naive.network)
            .expect("detect naive");
        if accuracy(&naive.network, &report.faulty_switches).false_positive_rate > 0.0 {
            naive_blamed.push(seed);
        }

        let mut tolerant = build(seed);
        tolerant.network.set_impairments(chaos);
        let report = SdnProbe::with_config(config(2, None))
            .detect(&mut tolerant.network)
            .expect("detect tolerant");
        assert!(
            report.faulty_switches.is_empty(),
            "seed {seed}: confirm_retries=2 still blamed {:?}",
            report.faulty_switches
        );
    }
    assert!(
        !naive_blamed.is_empty(),
        "expected the loss-naive loop to blame a benign switch on some seed"
    );
}

/// The full impairment mix — link loss, packet-in loss, transient
/// flow-mod failures — produces bit-identical reports at any thread
/// count: chaos decisions hash the virtual clock and probe identity,
/// never thread schedule.
#[test]
fn chaos_reports_identical_across_thread_counts() {
    for seed in [1u64, 7, 2018] {
        let chaos = Impairments::new(seed)
            .with_loss_rate(0.15)
            .with_ctrl_loss_rate(0.05)
            .with_flowmod_failure_rate(0.10);
        // 120 flows instead of the chaos case's 48 give 210–217 cover
        // paths: above the 128 (two workers of 64, `MIN_ITEMS_PER_THREAD`
        // in `src/parallel.rs`) that the expansion stage and the
        // first round's sends need before they fan out.
        let case = TopologyCase {
            flows: 120,
            ..chaos_case(seed)
        };
        let graph = RuleGraph::from_network(&case.build().network).expect("loop-free workload");
        assert!(generate(&graph).packet_count() >= 2 * 64, "seed {seed}");
        let run = |threads: Option<usize>| {
            let mut sn = case.build();
            sn.network.set_impairments(chaos);
            canonical(
                SdnProbe::with_config(config(2, threads))
                    .detect(&mut sn.network)
                    .expect("detect"),
            )
        };
        let baseline = run(Some(1));
        for threads in [2, 8] {
            assert_eq!(
                run(Some(threads)),
                baseline,
                "seed {seed} diverged at {threads} threads"
            );
        }
    }
}

/// Transient flow-mod failures at a plausible rate are absorbed by the
/// harness's bounded retries: detection stays exact and nothing is
/// quarantined.
#[test]
fn flowmod_retries_keep_detection_exact() {
    let seed = 11;
    let mut sn = build(seed);
    inject_random_basic_faults(&mut sn, 0.05, BasicFaultMix::DropOnly, seed);
    sn.network
        .set_impairments(Impairments::new(seed).with_flowmod_failure_rate(0.3));
    // A 30 % per-attempt failure rate needs a deeper retry budget than
    // the default 3 to make exhaustion negligible across hundreds of
    // flow-mods (0.3^11 per op).
    let config = ProbeConfig {
        flowmod_retries: 10,
        ..config(0, None)
    };
    let report = SdnProbe::with_config(config)
        .detect(&mut sn.network)
        .expect("detect");
    let acc = accuracy(&sn.network, &report.faulty_switches);
    assert_eq!(acc.false_positive_rate, 0.0);
    assert_eq!(acc.false_negative_rate, 0.0);
    assert!(report.degraded.is_empty(), "retries should ride out 30%");
}

/// When the controller channel is fully down, every probe's
/// instrumentation fails even after retries: the run degrades — it
/// reports quarantined rules instead of erroring or flagging anyone.
#[test]
fn total_flowmod_outage_degrades_instead_of_erroring() {
    let mut sn = build(3);
    sn.network
        .set_impairments(Impairments::new(3).with_flowmod_failure_rate(1.0));
    let report = SdnProbe::with_config(config(0, None))
        .detect(&mut sn.network)
        .expect("detect must survive a total outage");
    assert!(report.faulty_switches.is_empty(), "no probe ran, no blame");
    assert!(
        !report.degraded.is_empty(),
        "the lost coverage must be reported"
    );
}
