//! Error-prone environment sweep: how benign packet loss degrades
//! localization accuracy, and how confirmation retries restore it.
//!
//! For each benign loss rate — applied to both data-plane links and the
//! controller channel, since probes ride both — measures the false
//! positive rate on a healthy network and the false negative rate on a
//! network with a small set of persistent drop faults, once with the
//! naive loop (`confirm_retries = 0`) and once with two confirmation
//! re-sends (`confirm_retries = 2`). The paper's premise: probes
//! themselves ride the error-prone environment, so a loss-blind
//! localizer flags benign switches; re-confirming failed probes before
//! raising suspicion keeps FPR at zero without masking real
//! (persistent) faults, which fail every re-send too.
//!
//! Usage: `cargo run -p sdnprobe-bench --release --bin chaos [--runs N] [--threads N]`

use sdnprobe::{accuracy, ProbeConfig, SdnProbe};
use sdnprobe_bench::{arg, declare_flags, f3, parallelism, summary, ResultTable};
use sdnprobe_dataplane::Impairments;
use sdnprobe_workloads::{chaos_case, inject_random_basic_faults, BasicFaultMix};

/// One data point: mean FPR (healthy net) and mean FNR (faulted net)
/// over `runs` seeds at the given loss rate and retry budget.
fn measure(loss: f64, confirm_retries: u32, runs: usize) -> (f64, f64) {
    let config = ProbeConfig {
        parallelism: parallelism(),
        confirm_retries,
        ..ProbeConfig::default()
    };
    let mut fpr = 0.0;
    let mut fnr = 0.0;
    for run in 0..runs {
        let seed = 40_000 + run as u64;
        let chaos = Impairments::new(seed ^ 0x5eed)
            .with_loss_rate(loss)
            .with_ctrl_loss_rate(loss);

        let mut healthy = chaos_case(seed).build();
        healthy.network.set_impairments(chaos);
        let report = SdnProbe::with_config(config)
            .detect(&mut healthy.network)
            .expect("detect healthy");
        fpr += accuracy(&healthy.network, &report.faulty_switches).false_positive_rate;

        let mut faulted = chaos_case(seed).build();
        inject_random_basic_faults(&mut faulted, 0.05, BasicFaultMix::DropOnly, seed);
        faulted.network.set_impairments(chaos);
        let report = SdnProbe::with_config(config)
            .detect(&mut faulted.network)
            .expect("detect faulted");
        fnr += accuracy(&faulted.network, &report.faulty_switches).false_negative_rate;
    }
    (fpr / runs as f64, fnr / runs as f64)
}

fn main() {
    declare_flags("chaos", &["--runs N", "--threads N"]);
    let runs: usize = arg("runs").unwrap_or(10);
    let losses = [0.0, 0.05, 0.10, 0.15, 0.20];
    let mut table = ResultTable::new(
        "Error-prone environment: FPR (healthy) and FNR (drop faults) vs benign loss",
        &[
            "loss",
            "naive FPR",
            "naive FNR",
            "confirm=2 FPR",
            "confirm=2 FNR",
        ],
    );
    let mut naive_fpr_total = 0.0;
    let mut tolerant_fpr_total = 0.0;
    let mut tolerant_fnr_max = 0.0f64;
    for &loss in &losses {
        let (naive_fpr, naive_fnr) = measure(loss, 0, runs);
        let (tol_fpr, tol_fnr) = measure(loss, 2, runs);
        naive_fpr_total += naive_fpr;
        tolerant_fpr_total += tol_fpr;
        tolerant_fnr_max = tolerant_fnr_max.max(tol_fnr);
        table.push(&[
            format!("{:.0}%", loss * 100.0),
            f3(naive_fpr),
            f3(naive_fnr),
            f3(tol_fpr),
            f3(tol_fnr),
        ]);
    }
    table.print();
    table.save("chaos");
    summary(&[
        (
            "naive loop blames benign switches under loss",
            format!("summed FPR {}", f3(naive_fpr_total)),
        ),
        (
            "confirm_retries=2 FPR (expected: 0)",
            f3(tolerant_fpr_total),
        ),
        (
            "confirm_retries=2 still catches persistent drops (max FNR)",
            f3(tolerant_fnr_max),
        ),
    ]);
}
