//! Integration tests for the per-plan kernel decision: wide variants are
//! deterministic and converge like the reference kernels, the index
//! encoding never perturbs a reference-path trace, and mid-run replans
//! switch kernels without losing the model.

use dimmwitted::{
    AccessMethod, AnalyticsTask, DataReplication, DimmWitted, ExecutionPlan, KernelDecision,
    ModelKind, ModelReplication, Optimizer, RunConfig, RunReport,
};
use dw_data::{Dataset, PaperDataset};
use dw_matrix::{IndexEncoding, KernelVariant};
use dw_numa::MachineTopology;

fn machine() -> MachineTopology {
    MachineTopology::local2()
}

fn svm_task() -> AnalyticsTask {
    AnalyticsTask::from_dataset(
        &Dataset::generate(PaperDataset::Reuters, 42),
        ModelKind::Svm,
    )
}

fn base_plan() -> ExecutionPlan {
    ExecutionPlan::new(
        &machine(),
        AccessMethod::RowWise,
        ModelReplication::PerNode,
        DataReplication::FullReplication,
    )
}

fn run(plan: ExecutionPlan) -> RunReport {
    DimmWitted::on(machine())
        .task(svm_task())
        .plan(plan)
        .config(RunConfig::quick(5))
        .build()
        .run()
}

#[test]
fn default_plan_carries_the_reference_kernel() {
    let plan = base_plan();
    assert_eq!(plan.kernel, KernelDecision::default());
    assert_eq!(plan.kernel.variant, KernelVariant::Reference);
    assert_eq!(plan.kernel.encoding, IndexEncoding::U32);
}

#[test]
fn encoding_never_perturbs_a_reference_trace() {
    // The block-compressed index stream feeds the same single-accumulator
    // loop in the same order, so switching only the encoding must leave
    // the convergence trace bit-identical.
    let raw = run(base_plan());
    let encoded = run(base_plan().with_kernel(KernelDecision {
        variant: KernelVariant::Reference,
        encoding: IndexEncoding::DeltaU16,
    }));
    assert_eq!(raw.trace.fnv(), encoded.trace.fnv());
}

#[test]
fn wide_plan_is_deterministic_and_converges_with_reference() {
    let wide_plan = || {
        base_plan().with_kernel(KernelDecision {
            variant: KernelVariant::Wide { lanes: 4 },
            encoding: IndexEncoding::DeltaU16,
        })
    };
    let a = run(wide_plan());
    let b = run(wide_plan());
    assert_eq!(
        a.trace.fnv(),
        b.trace.fnv(),
        "same wide plan must reproduce the same trace"
    );
    let reference = run(base_plan());
    let tolerance = 1e-6 * reference.final_loss().abs().max(1.0);
    assert!(
        (a.final_loss() - reference.final_loss()).abs() <= tolerance,
        "wide {} vs reference {}",
        a.final_loss(),
        reference.final_loss()
    );
}

#[test]
fn replan_switches_kernels_mid_run_without_losing_the_model() {
    let task = svm_task();
    let session = DimmWitted::on(machine())
        .task(task)
        .plan(base_plan())
        .config(RunConfig::quick(6))
        .build();
    let mut stream = session.stream();
    // Two epochs on the reference kernels...
    for _ in 0..2 {
        assert!(stream.next().is_some());
    }
    let loss_before = stream.trace().points.last().expect("two epochs ran").loss;
    // ...then flip to wide kernels over the compressed encoding, mid-run.
    stream.replan(base_plan().with_kernel(KernelDecision {
        variant: KernelVariant::Wide { lanes: 8 },
        encoding: IndexEncoding::DeltaU16,
    }));
    let report = stream.run_to_end();
    assert_eq!(report.plan.kernel.variant, KernelVariant::Wide { lanes: 8 });
    assert_eq!(
        report.trace.points.len(),
        6,
        "budget continues across replan"
    );
    assert!(
        report.final_loss() <= loss_before,
        "loss kept improving after the kernel switch: {} vs {}",
        report.final_loss(),
        loss_before
    );
}

#[test]
fn optimizer_records_a_kernel_decision() {
    // Reuters at generation scale: the column domain fits a u16 block
    // window, so the optimizer picks the compressed encoding; rows average
    // ~12 stored elements, below the wide bar, so the variant stays
    // reference (the trace-parity anchor).
    let optimizer = Optimizer::new(machine());
    let plan = optimizer.choose_plan(&svm_task());
    assert_eq!(plan.kernel.encoding, IndexEncoding::DeltaU16);
    assert_eq!(plan.kernel.variant, KernelVariant::Reference);
    // The chosen encoding pays on this very matrix: at most 3 bytes per
    // stored index against raw u32's 4.
    let dataset = Dataset::generate(PaperDataset::Reuters, 42);
    let csr = dataset.matrix.csr();
    let bytes_per_nnz = csr.encoded_indices().size_bytes() as f64 / csr.nnz() as f64;
    assert!(
        bytes_per_nnz <= 3.0,
        "delta16 spends {bytes_per_nnz:.2} B/nnz on Reuters"
    );

    // The dense datasets keep raw u32 indexing: their layout decision is
    // the dense row store, which feeds no sparse index stream at all.
    let music =
        AnalyticsTask::from_dataset(&Dataset::generate(PaperDataset::Music, 42), ModelKind::Svm);
    let plan = optimizer.choose_plan(&music);
    assert_eq!(plan.kernel.encoding, IndexEncoding::U32);
}
