//! The paper's claims, one markdown table each, asserted on every row.
//!
//! Every experiment config goes through one [`Outcomes`], so a
//! configuration that several tables show runs once, and a budget
//! sweep stops at the generator's capacity instead of printing the
//! saturated row again.

use ba_auth::AuthBaWithClassification;
use ba_bench::{baseline, worst_case, Outcomes};
use ba_core::{Classify, MisclassificationReport};
use ba_crypto::Pki;
use ba_sim::{ProcessId, Runner, SilentAdversary, Value};
use ba_unauth::UnauthBaWithClassification;
use ba_workloads::{
    correlation, faults, fit_power_law, message_lower_bound, predictions_with_budget,
    round_lower_bound, sweep_grid, AdversaryKind, ErrorPlacement, ExperimentConfig, FaultPlacement,
    InputPattern, LiarStyle, Pipeline, SweepGrid, Table,
};
use std::collections::BTreeMap;
use std::sync::Arc;

fn main() {
    let mut outcomes = Outcomes::default();
    rounds_vs_b_and_f(&mut outcomes, "E1", Pipeline::Unauth, (40, 12, 10));
    rounds_vs_b_and_f(&mut outcomes, "E2", Pipeline::Auth, (40, 13, 12));
    println!("Every E1/E2 row dominates the Theorem 13 lower bound (E3).");
    message_scaling(&mut outcomes);
    conditional_unauth();
    conditional_auth();
    classification_quality();
    baseline_crossover(&mut outcomes);
    ablations(&mut outcomes);
    rounds_track_the_reference(&mut outcomes);
}

/// E1/E2 — Theorems 11/12: worst-case rounds follow
/// `O(min{B/n + 1, f})` (the authenticated wrapper at `t` beyond `n/3`),
/// messages stay near `n² log(·)`, and every run dominates Theorem 13's
/// lower bound `min{f+2, t+1, ⌊B/(n−f)⌋+2, ⌊B/(n−t)⌋+1}`. E1b/E2b sweep
/// `f` at a saturated budget: the `min{·, f}` arm.
fn rounds_vs_b_and_f(
    outcomes: &mut Outcomes,
    name: &str,
    pipeline: Pipeline,
    (n, t, f): (usize, usize, usize),
) {
    let kind = pipeline.name();
    let mut table = Table::new(
        &format!("{name}: {kind} rounds vs B (n={n}, t={t}, f={f}, worst-case adversary)"),
        &["B", "B/n", "k_A", "rounds", "msgs", "msgs/n²", "LB(Thm13)"],
    );
    let budgets = [0, 10, 20, 40, 80, 160, 320, 640, 1280];
    for out in outcomes.sweep(pipeline, n, t, f, &budgets) {
        let rounds = out.rounds.expect("checked");
        let lb = round_lower_bound(n, t, f, out.b_actual);
        assert!(
            rounds >= lb,
            "B={} undercut the Theorem 13 bound",
            out.b_actual
        );
        table.row([
            out.b_actual.to_string(),
            (out.b_actual / n).to_string(),
            out.k_a.to_string(),
            rounds.to_string(),
            out.messages.to_string(),
            format!("{:.1}", out.messages as f64 / (n * n) as f64),
            lb.to_string(),
        ]);
    }
    table.print();

    let mut ftab = Table::new(
        &format!("{name}b: {kind} rounds vs f (B saturated, n={n}, t={t})"),
        &["f", "rounds", "msgs"],
    );
    for fx in [0usize, 1, 2, 4, 8, 12] {
        let out = outcomes.get(&worst_case(n, t, fx, n * n, pipeline));
        ftab.row([
            fx.to_string(),
            out.rounds.expect("checked").to_string(),
            out.messages.to_string(),
        ]);
    }
    ftab.print();
}

/// E4 — Theorem 14: `Ω(n + t²)` messages even with 100% correct
/// predictions. Message counts with perfect predictions scale
/// quadratically in `n` (classification alone is `n(n−1)`), and never
/// drop below the `max(⌈n/4⌉, ⌊t/2⌋⌈t/2⌉)` floor from the proof. E10a
/// fits the unauthenticated counts' exponent.
fn message_scaling(outcomes: &mut Outcomes) {
    let mut table = Table::new(
        "E4: messages with perfect predictions (B = 0, f = t) vs Theorem 14 floor",
        &[
            "n", "t", "f", "pipeline", "rounds", "msgs", "msgs/n²", "floor",
        ],
    );
    let mut unauth = Vec::new();
    for (n, t) in [(16usize, 5usize), (24, 7), (32, 10), (48, 15), (64, 21)] {
        for pipeline in [Pipeline::Unauth, Pipeline::Auth] {
            let cfg =
                ExperimentConfig::new(n, t, t, 0, pipeline).with_inputs(InputPattern::Unanimous(5));
            let out = outcomes.get(&cfg);
            assert!(out.validity_ok, "strong unanimity violated at n = {n}");
            let floor = message_lower_bound(n, t);
            assert!(out.messages >= floor, "below the Dolev–Reischuk floor");
            // The Θ(n²) band: the per-n² ratio stays bounded (it decays
            // toward its asymptote because the conditional sub-protocols
            // contribute only O(n) messages at fixed k; the raw power-law
            // fit over small n therefore undershoots 2).
            let ratio = out.messages as f64 / (n * n) as f64;
            assert!(
                (3.0..=30.0).contains(&ratio),
                "msgs/n² = {ratio:.1} left the quadratic band at n = {n}"
            );
            if pipeline == Pipeline::Unauth {
                unauth.push((n as f64, out.messages as f64));
            }
            table.row([
                n.to_string(),
                t.to_string(),
                t.to_string(),
                format!("{pipeline:?}"),
                out.rounds.expect("checked").to_string(),
                out.messages.to_string(),
                format!("{ratio:.1}"),
                floor.to_string(),
            ]);
        }
    }
    table.print();
    println!(
        "Perfect predictions do not reduce message complexity below Ω(n + t²):\n\
         the measured counts stay Θ(n²) across the sweep — Theorem 14's point."
    );
    let p = fit_power_law(&unauth).expect("five samples");
    println!("E10a: fitted unauth message-scaling exponent: n^{p:.2} (quadratic-dominated)\n");
    assert!(p > 1.2, "scaling collapsed below quadratic dominance");
}

/// E5 — Theorem 5: Algorithm 5 standalone. With `kA ≤ k` and
/// `(2k+1)(3k+1) ≤ n − t − k`: agreement + strong unanimity, return
/// within `5(2k+1)` rounds, ≤ `5n` messages per process, `O(nk²)` total.
fn conditional_unauth() {
    let mut table = Table::new(
        "E5: Algorithm 5 (unauth conditional BA), f ≤ k, identity order",
        &[
            "n",
            "t",
            "k",
            "rounds(meas)",
            "5(2k+1)",
            "msgs",
            "nk² ref",
            "senders",
            "agree",
        ],
    );
    for (n, t, k, f) in [
        (16usize, 2usize, 1usize, 1usize),
        (40, 2, 2, 2),
        (96, 3, 3, 3),
    ] {
        assert!(UnauthBaWithClassification::condition_holds(n, t, k));
        let order: Arc<Vec<ProcessId>> = Arc::new(ProcessId::all(n).collect());
        let honest: BTreeMap<ProcessId, _> = ProcessId::all(n)
            .skip(f) // first f identifiers faulty (and silent)
            .enumerate()
            .map(|(slot, id)| {
                (
                    id,
                    UnauthBaWithClassification::new(
                        id,
                        n,
                        k,
                        Value(1 + (slot % 2) as u64),
                        Arc::clone(&order),
                    ),
                )
            })
            .collect();
        let mut runner = Runner::with_ids(n, honest, SilentAdversary);
        let report = runner.run(UnauthBaWithClassification::rounds(k) + 2);
        let agree = report.agreement();
        assert!(agree, "Theorem 5 violated at n={n}, k={k}");
        let rounds = report.last_decision_round.expect("all decided");
        assert!(rounds <= UnauthBaWithClassification::rounds(k) + 1);
        let senders = report
            .messages_per_process
            .values()
            .filter(|&&c| c > 0)
            .count();
        let per_process_max = report
            .messages_per_process
            .values()
            .max()
            .copied()
            .unwrap_or(0);
        assert!(per_process_max <= 5 * n as u64, "per-process 5n bound");
        table.row([
            n.to_string(),
            t.to_string(),
            k.to_string(),
            rounds.to_string(),
            UnauthBaWithClassification::rounds(k).to_string(),
            report.honest_messages.to_string(),
            (n * k * k).to_string(),
            senders.to_string(),
            agree.to_string(),
        ]);
    }
    table.print();
    println!("Rounds stay within 5(2k+1); only O(k²) processes ever send.");
}

/// E6 — Theorem 6: Algorithm 7 standalone. With `kA ≤ k`,
/// `2k+1 ≤ n − t − k`, `t < n/2`: agreement + strong unanimity in
/// exactly `k + 3` rounds, `O(nk²)` messages.
fn conditional_auth() {
    let mut table = Table::new(
        "E6: Algorithm 7 (auth conditional BA), f ≤ k, identity order",
        &[
            "n",
            "t",
            "k",
            "rounds(meas)",
            "k+3",
            "msgs",
            "nk² ref",
            "agree",
        ],
    );
    for (n, t, k, f) in [
        (10usize, 3usize, 2usize, 2usize),
        (20, 7, 4, 4),
        (40, 13, 8, 8),
        (80, 30, 16, 16),
    ] {
        assert!(AuthBaWithClassification::condition_holds(n, t, k));
        let pki = Arc::new(Pki::new(n, 7));
        let order: Arc<Vec<ProcessId>> = Arc::new(ProcessId::all(n).collect());
        let honest: BTreeMap<ProcessId, _> = ProcessId::all(n)
            .skip(f)
            .enumerate()
            .map(|(slot, id)| {
                (
                    id,
                    AuthBaWithClassification::new(
                        id,
                        n,
                        t,
                        k,
                        1,
                        Value(1 + (slot % 2) as u64),
                        Arc::clone(&order),
                        Arc::clone(&pki),
                        pki.signing_key(id.0),
                    ),
                )
            })
            .collect();
        let mut runner = Runner::with_ids(n, honest, SilentAdversary);
        let report = runner.run(AuthBaWithClassification::rounds(k) + 2);
        assert!(report.agreement(), "Theorem 6 violated at n={n}, k={k}");
        let rounds = report.last_decision_round.expect("all decided");
        assert_eq!(rounds, AuthBaWithClassification::rounds(k), "exactly k+3");
        table.row([
            n.to_string(),
            t.to_string(),
            k.to_string(),
            rounds.to_string(),
            AuthBaWithClassification::rounds(k).to_string(),
            report.honest_messages.to_string(),
            (n * k * k).to_string(),
            report.agreement().to_string(),
        ]);
    }
    table.print();
    println!("Algorithm 7 runs in exactly k+3 rounds across the sweep.");
}

/// E7 — Lemma 1: after the Algorithm 2 vote, at most
/// `B / (⌈n/2⌉ − f) = O(B/n)` processes are misclassified by any honest
/// process, across error-placement strategies. Each placement's budgets
/// stop at the first one it cannot spend in full.
fn classification_quality() {
    let (n, f) = (41, 6);
    let faulty = faults(n, f, FaultPlacement::Spread);
    let denom = n.div_ceil(2) - f;
    let mut table = Table::new(
        &format!("E7: misclassified processes k_A vs B (n={n}, f={f}, Lemma 1 bound B/{denom})"),
        &["placement", "B", "k_A", "bound", "within"],
    );
    for placement in [
        ErrorPlacement::Uniform,
        ErrorPlacement::Concentrated,
        ErrorPlacement::MissedFaultsOnly,
        ErrorPlacement::FalseAccusationsOnly,
        ErrorPlacement::TrustedFaults,
    ] {
        for budget in [0usize, 25, 50, 100, 200, 400] {
            let matrix = predictions_with_budget(n, &faulty, budget, placement, 5);
            let b = matrix.total_errors(&faulty);
            let honest: BTreeMap<ProcessId, Classify> = ProcessId::all(n)
                .filter(|p| !faulty.contains(p))
                .map(|id| (id, Classify::new(id, n, matrix.row(id).clone())))
                .collect();
            let mut runner = Runner::with_ids(n, honest, SilentAdversary);
            let report = runner.run(3);
            let refs: Vec<(ProcessId, &ba_core::BitVec)> =
                report.outputs.iter().map(|(i, c)| (*i, c)).collect();
            let k_a = MisclassificationReport::compute(n, &faulty, &refs).k_a();
            let bound = b / denom + 1;
            assert!(k_a <= bound, "Lemma 1 violated: {placement:?} B={b}");
            table.row([
                format!("{placement:?}"),
                b.to_string(),
                k_a.to_string(),
                bound.to_string(),
                "true".to_string(),
            ]);
            if b < budget {
                break;
            }
        }
    }
    table.print();
    println!("k_A never exceeds B/(⌈n/2⌉ − f) (+1 rounding): Lemma 1 holds.");
}

/// E8 — the introduction's promise: with accurate predictions the
/// wrapper beats the prediction-free baselines; with garbage predictions
/// it degrades to the same order, never worse than a constant factor.
///
/// Each baseline (`Pipeline::PhaseKing` unauth, `Pipeline::
/// TruncatedDolevStrong` auth) runs under silent faults at its wrapper's
/// E1/E2 `(n, t, f)`; the wrapper rows are E1/E2 rows, which face the
/// worst-case disruptor.
fn baseline_crossover(outcomes: &mut Outcomes) {
    let n = 40;
    let mut table = Table::new(
        &format!("E8: predictions vs prediction-free baselines (n={n}; unauth t=12, f=10; auth t=13, f=12)"),
        &["system", "B", "rounds", "vs baseline"],
    );
    for (label, base, wrapper, t, f) in [
        ("unauth", Pipeline::PhaseKing, Pipeline::Unauth, 12, 10),
        (
            "auth",
            Pipeline::TruncatedDolevStrong,
            Pipeline::Auth,
            13,
            12,
        ),
    ] {
        let base_rounds = outcomes
            .get(&baseline(n, t, f, base))
            .rounds
            .expect("checked");
        table.row([
            format!("{} baseline ({label})", base.name()),
            "-".to_string(),
            base_rounds.to_string(),
            "1.0×".to_string(),
        ]);
        for out in outcomes.sweep(wrapper, n, t, f, &[0, 40, n * n]) {
            let rounds = out.rounds.expect("checked");
            table.row([
                format!("wrapper ({label})"),
                out.b_actual.to_string(),
                rounds.to_string(),
                format!("{:.2}×", rounds as f64 / base_rounds as f64),
            ]);
        }
    }
    table.print();
    println!(
        "Accurate predictions win; the baselines face only silent faults here\n\
         while the wrapper rows face the worst-case disruptor, so the garbage-\n\
         prediction rows overstate the wrapper's degradation — the honest\n\
         apples-to-apples comparison is the paper's asymptotic claim."
    );

    // Every family once more, on a gentler grid: silent faults, and the
    // prediction-free baselines collapse to a single B = 0 cell each
    // since they never read the matrix.
    let grid = SweepGrid::new(baseline(24, 7, 5, Pipeline::Unauth))
        .budgets([0, 24, 96])
        .pipelines(Pipeline::ALL)
        .seeds(0..3);
    let points = sweep_grid(&grid);
    assert!(points.iter().all(|p| p.summary.always_agreed));
    println!(
        "E8 grid: all {} cells (every family, n = 24, 3 seeds) agree.\n",
        points.len()
    );
}

/// E9 — ablations over the harness's own workload choices, each a
/// one-field change of one worst-case base config:
///
/// * error placement: who gets hurt more by the same budget `B`
///   (concentrated vs uniform vs missed-faults-only);
/// * fault placement: head-packed vs spread coalitions;
/// * adversary strength: silent < classify-liar < disruptor.
fn ablations(outcomes: &mut Outcomes) {
    let (n, t, f, b) = (40, 12, 8, 120);
    let base = worst_case(n, t, f, b, Pipeline::Unauth);

    let mut p_tab = Table::new(
        &format!("E9a: error placement at fixed B={b} (n={n}, t={t}, f={f}, disruptor)"),
        &["placement", "k_A", "rounds", "msgs"],
    );
    for placement in [
        ErrorPlacement::Uniform,
        ErrorPlacement::Concentrated,
        ErrorPlacement::MissedFaultsOnly,
        ErrorPlacement::FalseAccusationsOnly,
        ErrorPlacement::TrustedFaults,
    ] {
        let out = outcomes.get(&base.clone().with_placement(placement));
        p_tab.row([
            format!("{placement:?}"),
            out.k_a.to_string(),
            out.rounds.expect("checked").to_string(),
            out.messages.to_string(),
        ]);
    }
    p_tab.print();

    let mut f_tab = Table::new(
        "E9b: fault placement (same B, disruptor)",
        &["fault ids", "rounds", "msgs"],
    );
    for fp in [
        FaultPlacement::Head,
        FaultPlacement::Pairs,
        FaultPlacement::Spread,
        FaultPlacement::Tail,
    ] {
        let out = outcomes.get(&base.clone().with_fault_placement(fp));
        f_tab.row([
            format!("{fp:?}"),
            out.rounds.expect("checked").to_string(),
            out.messages.to_string(),
        ]);
    }
    f_tab.print();

    let mut a_tab = Table::new(
        "E9c: adversary strength (same B and faults)",
        &["adversary", "rounds", "msgs"],
    );
    for (name, adv) in [
        ("silent", AdversaryKind::Silent),
        (
            "classify-liar",
            AdversaryKind::ClassifyLiar(LiarStyle::AllOnes),
        ),
        ("replay", AdversaryKind::Replay),
        ("disruptor", AdversaryKind::Disruptor),
    ] {
        let out = outcomes.get(&base.clone().with_adversary(adv));
        a_tab.row([
            name.to_string(),
            out.rounds.expect("checked").to_string(),
            out.messages.to_string(),
        ]);
    }
    a_tab.print();
    println!("Stronger adversaries and nastier placements cost rounds, never safety.");
}

/// E10b — measured worst-case rounds correlate with the
/// `min{B/n + 1, f}` reference curve across a joint (B, f) grid; the
/// `f = 12` column is E2's.
fn rounds_track_the_reference(outcomes: &mut Outcomes) {
    let (n, t) = (40usize, 13usize);
    let mut table = Table::new(
        &format!("E10b: rounds vs min(B/n + 1, f) reference (auth, n={n}, t={t}, worst case)"),
        &["B", "f", "reference", "rounds"],
    );
    let mut refs = Vec::new();
    let mut meas = Vec::new();
    for f in [2usize, 6, 12] {
        for out in outcomes.sweep(Pipeline::Auth, n, t, f, &[0, 40, 120, 360]) {
            let reference = ((out.b_actual / n) + 1).min(f.max(1)) as f64;
            let rounds = out.rounds.expect("checked");
            refs.push(reference);
            meas.push(rounds as f64);
            table.row([
                out.b_actual.to_string(),
                f.to_string(),
                format!("{reference:.0}"),
                rounds.to_string(),
            ]);
        }
    }
    table.print();
    let r = correlation(&refs, &meas).expect("grid");
    println!("correlation(rounds, min(B/n+1, f)) = {r:.3} (expected strongly positive)");
    assert!(r > 0.6, "rounds do not track the theorem curve: r = {r:.3}");
}
