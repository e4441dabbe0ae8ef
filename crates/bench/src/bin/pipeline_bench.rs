//! `pipeline_bench` — hard gates for the staged-pipeline extension
//! (DESIGN.md §12).
//!
//! ```text
//! cargo run --release -p nilicon-bench --bin pipeline_bench
//! ```
//!
//! Two measurements, both gated (the process exits nonzero on a miss):
//!
//! * **delta encode** — the vector diff kernel `diff_word_bitmap` that
//!   `ShadowStore::encode` runs on every re-dirtied page, against the
//!   portable scalar kernel `diff_word_bitmap_scalar`, over the same 300
//!   epoch-shaped page pairs in the same process with samples interleaved.
//!   Gated on the ratio: the vector kernel must be ≥2× faster. Both sides
//!   run on the same host, so the gate holds or fails for the code, not
//!   for the machine.
//! * **epoch throughput** — streamcluster (continuous, 25 epochs, 4× point
//!   set so the dirty assignment array is wire-bound) under the synchronous
//!   engine (every checkpoint phase on the stop path) vs `--pipeline
//!   --cow` (dump-drain → encode → transfer → ingest staged and overlapped
//!   with the next execution phase). Gated at ≥1.3× with byte-identical
//!   committed state.
//!
//! Results land in `BENCH_pipeline.json`.

use nilicon::harness::{RunHarness, RunMode};
use nilicon::{NiLiConEngine, OptimizationConfig, ReplicationConfig};
use nilicon_criu::delta::{diff_word_bitmap, diff_word_bitmap_scalar, WORDS_PER_PAGE};
use nilicon_sim::{CostModel, PageBuf, PAGE_SIZE};
use nilicon_workloads::{Scale, StreamclusterApp, Workload};
use serde::Serialize;
use std::hint::black_box;
use std::rc::Rc;

/// Gate: the dispatching diff kernel must be at least this many times
/// faster than the scalar kernel over the same pages.
const ENCODE_GATE_SPEEDUP: f64 = 2.0;

/// Page pairs per timed batch (one epoch's dirty set).
const ENCODE_PAGES: u64 = 300;

/// Gate: pipelined epoch throughput vs the synchronous engine.
const THROUGHPUT_GATE: f64 = 1.3;

const EPOCHS: u64 = 25;

#[derive(Serialize)]
struct ThroughputRow {
    mode: String,
    steps_per_s: f64,
    mean_stop_ns: u64,
    mean_ack_ns: u64,
    committed_bytes: u64,
}

#[derive(Serialize)]
struct Bench {
    kernel_ns: u64,
    scalar_ns: u64,
    encode_speedup: f64,
    throughput: Vec<ThroughputRow>,
    throughput_ratio: f64,
}

fn page_edits(n: usize, seed: u8) -> PageBuf {
    let mut p = [0u8; PAGE_SIZE];
    for i in 0..n {
        p[(i * 97 + 13) % PAGE_SIZE] = seed.wrapping_add(i as u8) | 1;
    }
    Rc::new(p)
}

/// Median wall time (ns) of the dispatching diff kernel and of the scalar
/// kernel, each over the same [`ENCODE_PAGES`] `(old, new)` page pairs.
///
/// Both sides do the same work on the same pages: only the kernel differs.
/// The two timings alternate in order sample by sample (3 warm-up + 15
/// measured), so drift and cache state hit both alike.
fn kernel_and_scalar_ns() -> (u64, u64) {
    type Kernel = fn(&[u8; PAGE_SIZE], &[u8; PAGE_SIZE]) -> [u64; WORDS_PER_PAGE / 64];
    let (old, new) = (page_set(1), page_set(2));
    let time = |kernel: Kernel| {
        let start = std::time::Instant::now();
        for (o, n) in old.iter().zip(&new) {
            black_box(kernel(black_box(o), black_box(n)));
        }
        start.elapsed().as_nanos() as u64
    };
    const WARMUP: usize = 3;
    const SAMPLES: usize = 15;
    let mut kernel_ns = Vec::with_capacity(SAMPLES);
    let mut scalar_ns = Vec::with_capacity(SAMPLES);
    for i in 0..WARMUP + SAMPLES {
        let (k, s) = if i % 2 == 0 {
            let k = time(diff_word_bitmap);
            (k, time(diff_word_bitmap_scalar))
        } else {
            let s = time(diff_word_bitmap_scalar);
            (time(diff_word_bitmap), s)
        };
        if i >= WARMUP {
            kernel_ns.push(k);
            scalar_ns.push(s);
        }
    }
    (median(&mut kernel_ns), median(&mut scalar_ns))
}

/// One epoch's worth of edited pages, distinct allocations like a real
/// dirty set.
fn page_set(seed: u8) -> Vec<PageBuf> {
    (0..ENCODE_PAGES).map(|_| page_edits(8, seed)).collect()
}

fn median(v: &mut [u64]) -> u64 {
    v.sort_unstable();
    v[v.len() / 2]
}

/// The bench-scale streamcluster cell, with the point set (and so the
/// per-epoch dirty assignment array, ~1250 pages) grown 4x: the pipeline's
/// win is overlap, so the gate measures the wire-bound regime where the
/// synchronous loop actually serializes transfer/ingest against execution.
/// At the paper's ~300 dirty pages/epoch the wire work is ~4 ms against a
/// 30 ms epoch and *no* overlap scheme could reach 1.3x.
fn continuous_streamcluster() -> Workload {
    let mut scale = Scale::bench();
    scale.sc_points *= 4;
    let mut w = nilicon_workloads::streamcluster(scale, 4);
    let mut app = StreamclusterApp::new(scale);
    app.passes = u32::MAX;
    w.app = Box::new(app);
    w
}

/// Run streamcluster for [`EPOCHS`] epochs and summarize: post-warmup
/// steps/s, mean stop/ack, and the total committed state bytes (the
/// equal-work check between the two rows).
fn streamcluster_row(label: &str, opts: OptimizationConfig) -> ThroughputRow {
    let w = continuous_streamcluster();
    let mode = RunMode::Replicated(Box::new(NiLiConEngine::new(opts, CostModel::default())));
    let mut h = RunHarness::new(
        w.spec,
        w.app,
        w.behavior,
        mode,
        ReplicationConfig::default(),
        w.parallelism,
    )
    .expect("harness");
    let tracer = nilicon_bench::cli_tracer();
    tracer.event_at(
        nilicon::TraceEvent::RunStart {
            name: w.name.to_string(),
            mode: label.to_string(),
        },
        0,
    );
    h.set_tracer(tracer);
    h.run_epochs(EPOCHS).expect("run");
    let r = h.finish();
    r.verify.expect("workload validated");
    let s = nilicon_bench::summarize(w.name, label, &r.metrics, nilicon_bench::WARMUP_EPOCHS);
    let warm = &r.metrics.epochs[nilicon_bench::WARMUP_EPOCHS..];
    ThroughputRow {
        mode: label.to_string(),
        steps_per_s: s.throughput,
        mean_stop_ns: s.avg_stop,
        mean_ack_ns: warm.iter().map(|e| e.ack_delay).sum::<u64>() / warm.len().max(1) as u64,
        committed_bytes: warm.iter().map(|e| e.state_bytes).sum(),
    }
}

fn main() {
    eprintln!("[encode] {ENCODE_PAGES}-page diff kernel vs scalar kernel, 15 samples...");
    let (kernel_ns, scalar_ns) = kernel_and_scalar_ns();
    let encode_speedup = scalar_ns as f64 / kernel_ns as f64;
    println!(
        "delta diff kernel, {ENCODE_PAGES} pages: median {kernel_ns} ns \
         ({encode_speedup:.2}x vs {scalar_ns} ns scalar kernel, same pages)"
    );

    // Both rows move the same pages: the synchronous row runs every
    // checkpoint phase on the stop path; the pipelined row stages the
    // dump-drain (COW), transfer, and ingest and overlaps them with the
    // next execution phase.
    let mut sync = OptimizationConfig::nilicon();
    sync.staging_buffer = false;
    sync.delta_transfer = false;
    let mut piped = OptimizationConfig::nilicon();
    piped.delta_transfer = false;
    piped.cow_checkpoint = true;
    piped.pipeline = true;

    eprintln!("[throughput] streamcluster x{EPOCHS} epochs, synchronous...");
    let row_sync = streamcluster_row("synchronous", sync);
    eprintln!("[throughput] streamcluster x{EPOCHS} epochs, --pipeline...");
    let row_pipe = streamcluster_row("pipeline", piped);
    let ratio = row_pipe.steps_per_s / row_sync.steps_per_s;
    for r in [&row_sync, &row_pipe] {
        println!(
            "throughput/{:<12} {:>12.0} steps/s  stop {:>10} ns  ack {:>10} ns  {} committed B",
            r.mode, r.steps_per_s, r.mean_stop_ns, r.mean_ack_ns, r.committed_bytes
        );
    }
    println!("throughput ratio: {ratio:.2}x (gate {THROUGHPUT_GATE}x)");

    let bench = Bench {
        kernel_ns,
        scalar_ns,
        encode_speedup,
        throughput: vec![row_sync, row_pipe],
        throughput_ratio: ratio,
    };
    let json = serde_json::to_string(&bench).expect("serialize");
    std::fs::write("BENCH_pipeline.json", &json).expect("write BENCH_pipeline.json");
    println!("wrote BENCH_pipeline.json");

    let sync_bytes = bench.throughput[0].committed_bytes;
    let pipe_bytes = bench.throughput[1].committed_bytes;
    if sync_bytes != pipe_bytes {
        eprintln!(
            "FATAL: committed bytes diverge: synchronous {sync_bytes} vs pipeline {pipe_bytes}"
        );
        std::process::exit(1);
    }
    if encode_speedup < ENCODE_GATE_SPEEDUP {
        eprintln!(
            "FATAL: delta diff kernel {kernel_ns} ns is only {encode_speedup:.2}x the \
             {scalar_ns} ns scalar kernel (gate {ENCODE_GATE_SPEEDUP}x)"
        );
        std::process::exit(1);
    }
    if ratio < THROUGHPUT_GATE {
        eprintln!("FATAL: throughput ratio {ratio:.2}x below the {THROUGHPUT_GATE}x gate");
        std::process::exit(1);
    }
    println!(
        "pipeline gates clean: encode {encode_speedup:.2}x (>={ENCODE_GATE_SPEEDUP}x), throughput {ratio:.2}x (>={THROUGHPUT_GATE}x)"
    );
}
