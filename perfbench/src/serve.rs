//! Readers: a closed loop of fixed-size batches through
//! `ClassifierHandle::snapshot().classify_batch`.

use crate::cpu;
use crate::report::Check;
use crate::tracer::{Span, Tracer};
use classbench::Packet;
use dtree::{ClassifierHandle, FlatTree, RuleId, Snapshot};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// A traced reader records the spans of one batch in this many.
pub const SAMPLE_EVERY: u64 = 8;

/// What one reader thread measured.
pub struct ReaderOut {
    /// On-CPU time of every batch, snapshot fetch included, in ns.
    pub batch_ns: Vec<f64>,
    /// Wall seconds from the first batch's start to the last's end.
    pub wall_s: f64,
    /// Packets per batch (the trace length is a multiple of it).
    pub batch: usize,
    /// Batches whose snapshot was newer than the previous batch's.
    pub refetches: u64,
    /// Overlay length seen by each traced batch.
    pub overlay_lens: Vec<f64>,
    /// Last result of every trace position served.
    pub results: Vec<Option<RuleId>>,
    /// Which batches were served at least once.
    pub served: Vec<bool>,
    /// Spans of the traced batches.
    pub spans: Vec<Span>,
}

impl ReaderOut {
    /// Verify every distinct batch this reader served against `truth`
    /// (one output per packet).
    pub fn verify(&self, truth: &[Option<RuleId>], batch: usize, check: &mut Check) {
        for (b, _) in self.served.iter().enumerate().filter(|(_, &s)| s) {
            let range = b * batch..((b + 1) * batch).min(truth.len());
            let bad = self.results[range.clone()]
                .iter()
                .zip(&truth[range.clone()])
                .filter(|(got, want)| got != want)
                .count();
            check.add(range.len() as u64, bad as u64, || {
                format!("batch {b}: {bad} packets disagree with the linear scan")
            });
        }
    }
}

/// Serve `trace` in batches of `batch` packets from its first batch on,
/// one fresh snapshot per batch, until `stop` is set (at least one
/// batch). Each batch is timed on the reader thread's CPU clock.
///
/// # Panics
/// Panics unless the trace length is a positive multiple of `batch`.
pub fn reader(
    handle: &ClassifierHandle,
    trace: &[Packet],
    batch: usize,
    stop: &AtomicBool,
    mut t: Tracer,
) -> ReaderOut {
    assert!(
        batch > 0 && !trace.is_empty() && trace.len().is_multiple_of(batch),
        "trace must be whole batches"
    );
    let batches = trace.len() / batch;
    let mut out = ReaderOut {
        batch_ns: Vec::with_capacity(1 << 16),
        wall_s: 0.0,
        batch,
        refetches: 0,
        overlay_lens: Vec::new(),
        results: vec![None; trace.len()],
        served: vec![false; batches],
        spans: Vec::new(),
    };
    let mut b = 0;
    let mut last_epoch = None;
    let started = Instant::now();
    let mut id = 0u64;
    // Every reader serves at least one batch, however soon it is stopped.
    loop {
        let range = b * batch..(b + 1) * batch;
        let (packets, results) = (&trace[range.clone()], &mut out.results[range.clone()]);
        let t0 = cpu::thread_ns();
        let snap: std::sync::Arc<Snapshot> = if t.on() && id.is_multiple_of(SAMPLE_EVERY) {
            let span = t.begin("bench.batch", id);
            let snap = t.time("dtree.serve.handle.snapshot", id, 1, || handle.snapshot());
            t.time("dtree.serve.snapshot.classify_batch", id, packets.len() as u64, || {
                snap.classify_batch(packets, results)
            });
            t.end(span, packets.len() as u64);
            out.overlay_lens.push(snap.overlay_len() as f64);
            snap
        } else {
            let snap = handle.snapshot();
            snap.classify_batch(packets, results);
            snap
        };
        out.batch_ns.push((cpu::thread_ns() - t0) as f64);
        if last_epoch.is_some_and(|e| e != snap.epoch()) {
            out.refetches += 1;
        }
        last_epoch = Some(snap.epoch());
        out.served[b] = true;
        b = (b + 1) % batches;
        id += 1;
        if stop.load(Ordering::Relaxed) {
            break;
        }
    }
    out.wall_s = started.elapsed().as_secs_f64();
    out.spans = t.finish();
    out
}

/// Serve `trace` from one reader thread for `window`, starting at its
/// first batch. The reader traces as thread 1.
pub fn serve_for(
    handle: &ClassifierHandle,
    trace: &[Packet],
    batch: usize,
    window: Duration,
    tracer: Tracer,
) -> ReaderOut {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let stop = &stop;
        let reader = s.spawn(move || reader(handle, trace, batch, stop, tracer));
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
        reader.join().expect("reader thread panicked")
    })
}

/// Time the compiled kernel alone (`FlatTree::classify_batch`) over
/// `passes` passes of `trace`, one span per batch.
pub fn probe_flat(flat: &FlatTree, trace: &[Packet], batch: usize, passes: usize, t: &mut Tracer) {
    if !t.on() {
        return;
    }
    let mut scratch = vec![None; batch];
    for pass in 0..passes {
        for (b, packets) in trace.chunks(batch).enumerate() {
            let out = &mut scratch[..packets.len()];
            let id = (pass * trace.len().div_ceil(batch) + b) as u64;
            t.time("dtree.flat.classify_batch", id, packets.len() as u64, || {
                flat.classify_batch(packets, out)
            });
        }
    }
    std::hint::black_box(&scratch);
}
