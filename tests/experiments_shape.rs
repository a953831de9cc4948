//! Integration tests asserting every experiment driver reproduces the
//! *shape* of its table/figure: who wins, by roughly what factor, and
//! where the crossovers fall.

use edgebert::engine::DropTarget;
use edgebert::experiments::{fig10, fig11, fig7, fig8, fig9, table1, table2, table3, table4};
use edgebert::pipeline::{Scale, TaskArtifacts};
use edgebert_tasks::Task;
use std::sync::OnceLock;

fn artifacts() -> &'static Vec<TaskArtifacts> {
    static CELL: OnceLock<Vec<TaskArtifacts>> = OnceLock::new();
    CELL.get_or_init(|| {
        vec![
            TaskArtifacts::build(Task::Sst2, Scale::Test, 0x51A),
            TaskArtifacts::build(Task::Qnli, Scale::Test, 0x51B),
        ]
    })
}

#[test]
fn table1_reports_spans_for_every_task() {
    let t = table1::run(artifacts());
    assert_eq!(t.rows.len(), 2);
    for row in &t.rows {
        // Our test-scale model has 4 heads; the embedded paper reference
        // always has ALBERT's 12.
        assert!(!row.spans.is_empty());
        assert_eq!(row.paper_spans.len(), 12);
        // Spans respect the model's maximum.
        assert!(row.spans.iter().all(|&s| (0.0..=16.0).contains(&s)));
        // The paper rows embedded for reference keep their >half-off
        // property.
        let off = row.paper_spans.iter().filter(|&&s| s == 0.0).count();
        assert!(off >= 7);
    }
    let text = table1::render(&t);
    assert!(text.contains("SST-2"));
}

#[test]
fn table2_mlc_ordering_and_specs() {
    let t = table2::run(artifacts(), 10, 12, 0x7AB2);
    assert_eq!(t.cells.len(), 2 * 3);
    for chunk in t.cells.chunks(3) {
        let (slc, mlc2, mlc3) = (&chunk[0], &chunk[1], &chunk[2]);
        // Min accuracy never exceeds the mean.
        for c in chunk {
            assert!(c.min_acc <= c.mean_acc + 1e-4);
        }
        // Fault exposure grows with density: MLC3 sees far more faulted
        // cells than SLC/MLC2.
        assert!(mlc3.mean_faults > mlc2.mean_faults);
        assert!(mlc3.mean_faults > slc.mean_faults);
        // SLC and MLC2 are effectively fault-free at paper rates.
        assert!(slc.mean_faults < 1.0);
        assert!(mlc2.mean_faults < 2.0);
    }
    // Table 2's physical characteristics come through.
    assert_eq!(t.area_density.len(), 3);
    assert!(t.area_density[0].1 > t.area_density[2].1);
    assert!(t.read_latency[2].1 > t.read_latency[0].1);
}

#[test]
fn table2_elevated_error_rates_change_the_models_predictions() {
    // Failure-injection sanity: cranking the error rate far above the
    // technology defaults must visibly change what the model says. The
    // score is agreement with the clean model's own predictions, not
    // label accuracy: a near-chance `Scale::Test` model can gain accuracy
    // from a corrupted table, but it cannot agree with itself by chance.
    use edgebert_envm::{CampaignResult, CellTech, FaultInjector, StoredEmbedding};
    use edgebert_tasks::{Dataset, Example};
    use edgebert_tensor::Rng;
    let art = &artifacts()[0];
    let own = Dataset::new(
        art.task,
        art.dev
            .iter()
            .map(|ex| Example {
                label: art
                    .model
                    .forward_layers(&ex.tokens)
                    .prediction_at(art.model.num_layers()),
                ..ex.clone()
            })
            .collect(),
    );
    let stored = StoredEmbedding::encode(&art.model.embedding.table.value, 4);
    let mut eval_model = edgebert_model::AlbertModel::clone(&art.model);
    let mut agreement = |rate: f64| {
        let injector = FaultInjector::new(CellTech::Mlc3).with_error_rate(rate);
        CampaignResult::run(&stored, &injector, 8, &mut Rng::seed_from(3), |img| {
            eval_model.embedding.set_table(img.decode());
            eval_model.evaluate_accuracy(&own)
        })
    };
    let none = agreement(0.0);
    // Storing alone rounds the embedding to FP8, which moves a final logit
    // gap on this dev set by up to ≈ 0.07. Under the in-repo `exp`/`ln`
    // one sentence's gap is 0.040 (the next smallest is 0.078) and the
    // round trip flips it, reading 35/36; under libm's (efdc870) none
    // flipped. No more than that one sentence may change.
    let n = own.len() as f32;
    assert!(
        none.min >= (n - 1.0) / n,
        "no faults, at most one borderline sentence changes: {}",
        none.min
    );
    let hot = agreement(0.2);
    // Measured: mean 0.934, min 0.750 under libm `tanh` (59102c6), mean
    // 0.931, min 0.694 under the in-repo one (efdc870) and mean 0.927,
    // min 0.611 under the in-repo `exp`/`ln`; one changed sentence of 36
    // on every trial would read 0.972.
    assert!(hot.mean < 0.97, "mean {} min {}", hot.mean, hot.min);
}

#[test]
fn table3_rows_are_complete_and_ordered() {
    let t = table3::run(artifacts());
    assert_eq!(t.rows.len(), 2 * 3);
    for rows in t.rows.chunks(3) {
        // Looser drop targets never exit later.
        assert!(rows[2].conv_avg_exit <= rows[0].conv_avg_exit + 1e-4);
        // Predicted exits are conservative vs actual.
        for r in rows {
            assert!(r.lai_avg_predicted + 1e-4 >= r.lai_avg_actual);
            assert!(r.embedding_sparsity_pct > 50.0);
        }
    }
}

#[test]
fn table4_specs_match_paper() {
    let t = table4::run();
    assert_eq!(t.ldo_response_ns_per_50mv, 3.8);
    assert_eq!(t.adpll_power_mw_at_1ghz, 2.46);
}

#[test]
fn fig7_waveform_tracks_dvfs() {
    let arts = artifacts();
    let art = &arts[0];
    let engine = art.engine_at(50e-3, DropTarget::OnePercent, true);
    let f = fig7::run(art, &engine, 3);
    assert_eq!(f.sentences.len(), 3);
    // The waveform touches both nominal (layer 1) and a scaled level.
    let max_v = f.waveform.iter().map(|(_, v)| *v).fold(0.0f32, f32::max);
    let min_v = f.waveform.iter().map(|(_, v)| *v).fold(1.0f32, f32::min);
    assert!((max_v - 0.8).abs() < 1e-3, "max {max_v}");
    assert!(min_v <= 0.5 + 1e-3, "min {min_v}");
    // Time is monotone.
    for w in f.waveform.windows(2) {
        assert!(w[1].0 >= w[0].0 - 1e-12);
    }
}

#[test]
fn fig8_shape_n16_optimal_and_mgpu_crossover() {
    let f = fig8::run(artifacts());
    // n = 16 is the energy-optimal design under full optimizations.
    for (task, _, _) in &f.mgpu_base {
        assert_eq!(fig8::energy_optimal_n(&f, task), 16, "task {task}");
    }
    // Latency drops 2.2-4.2x per doubling of n.
    let lat = |task: &str, n: usize| {
        f.points
            .iter()
            .find(|p| p.task == task && p.n == n && p.variant == "base")
            .map(|p| p.latency_s)
            .expect("point exists")
    };
    let task = &f.mgpu_base[0].0;
    for w in [2usize, 4, 8, 16].windows(2) {
        let drop = lat(task, w[0]) / lat(task, w[1]);
        assert!((2.2..4.4).contains(&drop), "drop {drop} at n={}", w[1]);
    }
    // The accelerator first beats the mGPU latency at n = 16 (paper:
    // "starts to outperform the mGPU processing time with n = 16").
    let gpu_lat = f.mgpu_base[0].1;
    assert!(lat(task, 8) > gpu_lat);
    assert!(lat(task, 16) < gpu_lat);
    // mGPU energy is ~50x the n=16 optimized accelerator energy.
    let acc_energy = f
        .points
        .iter()
        .find(|p| &p.task == task && p.n == 16 && p.variant == "aas+sparse")
        .map(|p| p.energy_j)
        .expect("point exists");
    let ratio = f.mgpu_base[0].2 / acc_energy;
    assert!(
        (20.0..200.0).contains(&ratio),
        "mGPU/accelerator energy {ratio}"
    );
}

#[test]
fn fig9_lai_saves_energy_within_deadline() {
    let f = fig9::run(artifacts());
    for (task, _, _) in f
        .bars
        .iter()
        .map(|b| (b.task.clone(), 0, 0))
        .collect::<std::collections::BTreeSet<_>>()
    {
        let vs_base = fig9::savings_vs(&f, &task, "base");
        assert!(
            vs_base > 1.3,
            "{task}: LAI saves only {vs_base:.2}x vs Base"
        );
        let vs_ee = fig9::savings_vs(&f, &task, "ee");
        assert!(
            vs_ee >= 1.0,
            "{task}: LAI must not cost more than EE ({vs_ee:.2}x)"
        );
    }
    // No deadline misses anywhere in the sweep.
    for b in &f.bars {
        assert_eq!(b.miss_rate, 0.0, "{} {} missed deadlines", b.task, b.scheme);
    }
}

#[test]
fn fig10_and_fig11_shapes() {
    let f10 = fig10::run();
    let mac = f10
        .breakdown
        .iter()
        .find(|r| r.name == "MACs")
        .expect("MAC row");
    assert!(mac.latency_frac > 0.85);
    assert!(mac.energy_frac > 0.93);
    assert!((f10.total_area_mm2 - 1.39).abs() < 0.01);

    let f11 = fig11::run();
    assert!(f11.latency_advantage > 30.0);
    assert!(f11.energy_advantage > 5_000.0);
}
