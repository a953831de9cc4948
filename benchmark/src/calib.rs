//! Host-speed calibration, and the sibling load that makes it work.
//!
//! The boxes this benchmark runs on are small virtual machines on a
//! shared host, and the same code on the same box does not run at one
//! speed:
//!
//! * The two virtual CPUs behave like the two threads of one core: a
//!   thread runs about a quarter faster while the other CPU is idle than
//!   while it is busy, a thread that sleeps between requests draws again
//!   at every wake, and a closed loop with one request in flight was seen
//!   to sit on either speed for a whole run.
//! * The neighbours on the host come and go in phases of minutes. In a
//!   busy phase the served model (small dense float kernels, a fresh
//!   buffer for every result) ran up to 45 % slower, while an integer
//!   dependency chain, the first reference this module used, ran at the
//!   same speed to the percent: the neighbours take execution units and
//!   cache, not clock. Calibrated against that chain, the same code
//!   moved by 15–20 % between runs, and the driver refused the benchmark.
//!
//! The benchmark therefore measures in one host state only, **every CPU
//! busy**, and calibrates the rest against a reference that suffers the
//! way the program does:
//!
//! * Workloads keep every CPU busy by themselves where they can (one
//!   closed-loop client per lane, a burst across both lanes, both tasks
//!   trained at once). Where the measured work is one thread (a
//!   scheduler drain, a direct `serve`, a kernel), [`HostClock`]'s helper
//!   threads run the reference on the other CPUs meanwhile
//!   ([`load_siblings`](HostClock::load_siblings)).
//! * The reference ([`reference_pass`]) is a frozen loop in the shape of
//!   the encoder layers of the served model: the projections, per head
//!   a slice, its scores, a softmax and the context, and the two
//!   feed-forward products, each into a fresh buffer. It is
//!   the benchmark's own code and calls nothing of the repo's, so a
//!   change to the program cannot move it. It is timed right before and
//!   after each measurement ([`sample`](HostClock::sample)), and the
//!   measured time is divided by how much slower than nominal the host
//!   ran it: its **speed factor**. Across quiet and busy phases of the
//!   host, `serve_deep` measured raw moved by ±20 %, calibrated by ±4 %.
//! * The neighbours slow one CPU and not the other, so the reference
//!   runs where the work runs: on every CPU at once around work that
//!   uses them all, on the calling thread alone (the helpers keep
//!   loading theirs) around work that is one thread. Over 181 drains in
//!   a busy phase, run medians ranged over 33 % raw, 9 % calibrated by
//!   the calling thread's own passes, and 25 % by the other CPU's.
//!
//! The median factor of a run is printed and stored beside the metrics,
//! so raw time ≈ reported time × factor.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Seconds one [`reference_pass`] takes on the nominal host: the box
/// the first ledger was recorded on, in a quiet phase, with every CPU
/// running the reference. A host this fast has speed factor 1.
const NOMINAL_PASS_S: f64 = 3.3e-3;

/// Encoder layers' worth of work in one pass (about 3 ms).
const LAYERS_PER_PASS: usize = 16;
/// Passes a thread runs for one sample; the middle one is kept. The
/// fastest would be the one that ran while another CPU's passes had not
/// started or were over, the slowest the one something interrupted.
const PASSES_PER_SAMPLE: usize = 3;

/// Shapes of the served model: sequence, hidden width, head width,
/// feed-forward width.
const ROWS: usize = 32;
const HIDDEN: usize = 48;
const HEAD: usize = 4;
const WIDE: usize = 96;

/// `a · b` for `a` of `rows × inner` and `b` of `inner × cols`, into a
/// fresh buffer, skipping the zeros of `a`: the loop of a dense layer
/// over a pruned operand.
fn matmul(a: &[f32], b: &[f32], inner: usize, cols: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; a.len() / inner * cols];
    for (a_row, out_row) in a.chunks_exact(inner).zip(out.chunks_exact_mut(cols)) {
        for (&x, b_row) in a_row.iter().zip(b.chunks_exact(cols)) {
            if x == 0.0 {
                continue;
            }
            for (o, &y) in out_row.iter_mut().zip(b_row) {
                *o += x * y;
            }
        }
    }
    out
}

/// The columns of one head, copied out of a `ROWS × HIDDEN` matrix.
fn head_of(matrix: &[f32], head: usize) -> Vec<f32> {
    matrix
        .chunks_exact(HIDDEN)
        .flat_map(|row| row[head * HEAD..(head + 1) * HEAD].iter().copied())
        .collect()
}

/// One attention head: the slices of `q`, `k` and `v`, the `ROWS × ROWS`
/// scores, a softmax over every row of them, and their product with the
/// values (`ROWS × HEAD`).
fn attend(q: &[f32], k: &[f32], v: &[f32], head: usize) -> Vec<f32> {
    let (q, k, v) = (head_of(q, head), head_of(k, head), head_of(v, head));
    let mut scores = vec![0.0f32; ROWS * ROWS];
    for (q_i, row) in q.chunks_exact(HEAD).zip(scores.chunks_exact_mut(ROWS)) {
        for (k_j, o) in k.chunks_exact(HEAD).zip(row.iter_mut()) {
            *o = q_i.iter().zip(k_j).map(|(&a, &b)| a * b).sum();
        }
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for s in row.iter_mut() {
            *s = (*s - max).exp();
            sum += *s;
        }
        for s in row.iter_mut() {
            *s /= sum;
        }
    }
    matmul(&scores, &v, ROWS, HEAD)
}

/// Fixed weights of the reference layer.
struct Weights {
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    out: Vec<f32>,
    up: Vec<f32>,
    down: Vec<f32>,
}

/// `len` fixed values in about ±`scale`, every third of them zero when
/// `pruned`.
fn fixed(len: usize, salt: usize, scale: f32, pruned: bool) -> Vec<f32> {
    (0..len)
        .map(|i| {
            if pruned && i % 3 == 0 {
                0.0
            } else {
                ((i * 37 + salt * 11) % 101) as f32 / 50.0 * scale - scale
            }
        })
        .collect()
}

/// One encoder layer's worth of the reference: three projections, every
/// head's attention gathered back into one matrix, the output
/// projection, and the two feed-forward products around a `tanh`.
fn reference_layer(x: &[f32], w: &Weights) -> Vec<f32> {
    let q = matmul(x, &w.q, HIDDEN, HIDDEN);
    let k = matmul(x, &w.k, HIDDEN, HIDDEN);
    let v = matmul(x, &w.v, HIDDEN, HIDDEN);
    let mut context = vec![0.0f32; ROWS * HIDDEN];
    for head in 0..HIDDEN / HEAD {
        let attended = attend(&q, &k, &v, head);
        for (row, part) in context.chunks_exact_mut(HIDDEN).zip(attended.chunks_exact(HEAD)) {
            row[head * HEAD..(head + 1) * HEAD].copy_from_slice(part);
        }
    }
    let attended = matmul(&context, &w.out, HIDDEN, HIDDEN);
    let wide: Vec<f32> = matmul(&attended, &w.up, HIDDEN, WIDE)
        .into_iter()
        .map(|h| 0.5 * h * (1.0 + (0.8 * h).tanh()))
        .collect();
    matmul(&wide, &w.down, WIDE, HIDDEN)
}

/// The reference: [`LAYERS_PER_PASS`] layers on fixed inputs. Returns
/// its seconds.
pub fn reference_pass() -> f64 {
    let x = fixed(ROWS * HIDDEN, 0, 0.8, true);
    let square = |salt| fixed(HIDDEN * HIDDEN, salt, 0.4, false);
    let w = Weights {
        q: square(1),
        k: square(2),
        v: square(3),
        out: square(4),
        up: fixed(HIDDEN * WIDE, 5, 0.4, false),
        down: fixed(WIDE * HIDDEN, 6, 0.4, false),
    };
    let start = Instant::now();
    for _ in 0..LAYERS_PER_PASS {
        black_box(reference_layer(black_box(&x), black_box(&w)));
    }
    start.elapsed().as_secs_f64()
}

/// The middle of [`PASSES_PER_SAMPLE`] passes, seconds.
fn reference_sample() -> f64 {
    let mut passes: Vec<f64> = (0..PASSES_PER_SAMPLE).map(|_| reference_pass()).collect();
    passes.sort_by(f64::total_cmp);
    passes[passes.len() / 2]
}

/// The speed factor of a host that ran the reference in `pass_s`.
fn factor_of(pass_s: f64) -> f64 {
    pass_s / NOMINAL_PASS_S
}

/// What a helper thread is asked to do.
enum Job {
    /// Run [`reference_sample`]; reply with its seconds.
    Calibrate,
    /// Run the reference until the clock's `loading` flag drops; then
    /// reply.
    Load,
}

/// One helper thread: it sleeps in `recv` unless given a job.
struct Helper {
    jobs: Sender<Job>,
    done: Receiver<f64>,
    thread: JoinHandle<()>,
}

/// Speed factors sampled along a run, and the helper threads (one per
/// CPU but the caller's) that sample and load the other CPUs.
pub struct HostClock {
    epoch: Instant,
    /// `(seconds since the epoch, factor)`, in time order.
    samples: Vec<(f64, f64)>,
    helpers: Vec<Helper>,
    /// Raised while the helpers are to load their CPUs. It publishes
    /// nothing but itself, so `Relaxed` is enough.
    loading: Arc<AtomicBool>,
    /// Whether the helpers are loading their CPUs now.
    loaded: bool,
}

impl HostClock {
    /// A clock counting from `epoch`, with no samples yet and its
    /// helpers asleep.
    pub fn new(epoch: Instant) -> Self {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let loading = Arc::new(AtomicBool::new(false));
        let helpers = (1..cpus)
            .map(|i| {
                let (jobs, inbox) = channel::<Job>();
                let (reply, done) = channel();
                let loading = Arc::clone(&loading);
                let thread = std::thread::Builder::new()
                    .name(format!("bench-sibling-{i}"))
                    .spawn(move || {
                        crate::alloc::exempt_this_thread();
                        for job in inbox {
                            let seconds = match job {
                                Job::Calibrate => reference_sample(),
                                Job::Load => {
                                    while loading.load(Ordering::Relaxed) {
                                        reference_pass();
                                    }
                                    0.0
                                }
                            };
                            if reply.send(seconds).is_err() {
                                break;
                            }
                        }
                    })
                    .expect("spawn a calibration helper");
                Helper { jobs, done, thread }
            })
            .collect();
        Self {
            epoch,
            samples: Vec::new(),
            helpers,
            loading,
            loaded: false,
        }
    }

    fn send_all(&self, job: impl Fn() -> Job) {
        for helper in &self.helpers {
            helper
                .jobs
                .send(job())
                .expect("a calibration helper is running");
        }
    }

    fn await_all(&self) -> f64 {
        self.helpers
            .iter()
            .map(|h| h.done.recv().expect("a calibration helper replies"))
            .sum()
    }

    /// Makes the helpers run the reference on the other CPUs (`on`), or
    /// lets them sleep again. Turn it on around work that runs on the
    /// calling thread alone, so that it too is measured with every CPU
    /// busy; leave it off around work that keeps the CPUs busy by itself.
    pub fn load_siblings(&mut self, on: bool) {
        if on == self.loaded {
            return;
        }
        self.loaded = on;
        self.loading.store(on, Ordering::Relaxed);
        if on {
            self.send_all(|| Job::Load);
        } else {
            self.await_all();
        }
    }

    /// Times the reference now and records the host's speed factor: 1
    /// on the nominal host, above 1 on a slower one. Under a sibling
    /// load the calling thread alone is timed, for the work measured
    /// then is its own; otherwise every CPU at once, and the mean.
    pub fn sample(&mut self) -> f64 {
        let pass_s = if self.loaded {
            reference_sample()
        } else {
            self.send_all(|| Job::Calibrate);
            let mine = reference_sample();
            (mine + self.await_all()) / (self.helpers.len() + 1) as f64
        };
        let factor = factor_of(pass_s);
        self.samples.push((self.now_s(), factor));
        factor
    }

    /// Runs `f` between two samples; returns its result and the host's
    /// mean speed factor while it ran.
    pub fn around<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        self.sample();
        let from_s = self.now_s();
        let out = f();
        let to_s = self.now_s();
        self.sample();
        (out, self.factor_over(from_s, to_s))
    }

    /// Runs `f` between two samples; returns its result and its
    /// calibrated wall time, seconds.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        let start = Instant::now();
        let ((out, raw_s), speed) = self.around(|| {
            let out = f();
            (out, start.elapsed().as_secs_f64())
        });
        (out, raw_s / speed)
    }

    /// Seconds since the clock's epoch.
    pub fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// The factor at `t_s` seconds since the epoch, interpolated between
    /// the samples around it (the nearest one outside their range; 1
    /// with no samples at all).
    pub fn factor_at(&self, t_s: f64) -> f64 {
        let after = self.samples.partition_point(|&(t, _)| t <= t_s);
        match (
            after.checked_sub(1).map(|i| self.samples[i]),
            self.samples.get(after),
        ) {
            (Some((t0, f0)), Some(&(t1, f1))) if t1 > t0 => f0 + (f1 - f0) * (t_s - t0) / (t1 - t0),
            (Some((_, f)), _) | (None, Some(&(_, f))) => f,
            (None, None) => 1.0,
        }
    }

    /// The mean factor over `[from_s, to_s]`, taken at its ends and at
    /// every sample inside.
    pub fn factor_over(&self, from_s: f64, to_s: f64) -> f64 {
        let inside = self
            .samples
            .iter()
            .filter(|&&(t, _)| t > from_s && t < to_s)
            .map(|&(_, f)| f);
        let points: Vec<f64> = [self.factor_at(from_s), self.factor_at(to_s)]
            .into_iter()
            .chain(inside)
            .collect();
        points.iter().sum::<f64>() / points.len() as f64
    }
}

impl Drop for HostClock {
    fn drop(&mut self) {
        // Lower the flag and close the channels: a loading helper
        // falls out of its loop, a sleeping one out of its `recv`. A
        // helper that panicked has nothing left to report here.
        self.loading.store(false, Ordering::Relaxed);
        for Helper { jobs, thread, .. } in self.helpers.drain(..) {
            drop(jobs);
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock(samples: &[(f64, f64)]) -> HostClock {
        let mut c = HostClock::new(Instant::now());
        c.samples = samples.to_vec();
        c
    }

    #[test]
    fn factor_interpolates_and_clamps() {
        assert_eq!(clock(&[]).factor_at(3.0), 1.0);
        let c = clock(&[(1.0, 1.0), (3.0, 1.2)]);
        assert_eq!(c.factor_at(0.0), 1.0);
        assert_eq!(c.factor_at(1.0), 1.0);
        assert!((c.factor_at(2.0) - 1.1).abs() < 1e-12);
        assert_eq!(c.factor_at(9.0), 1.2);
    }

    #[test]
    fn factor_over_averages_ends_and_inner_samples() {
        let c = clock(&[(0.0, 1.0), (1.0, 1.3), (2.0, 1.0)]);
        assert!((c.factor_over(0.0, 2.0) - 1.1).abs() < 1e-12);
        assert!((c.factor_over(0.0, 1.0) - 1.15).abs() < 1e-12);
    }

    #[test]
    fn the_reference_layer_computes_finite_attention() {
        let x = fixed(ROWS * HIDDEN, 0, 0.8, true);
        let w = fixed(HIDDEN * HIDDEN, 1, 0.4, false);
        let projected = matmul(&x, &w, HIDDEN, HIDDEN);
        assert_eq!(projected.len(), ROWS * HIDDEN);
        // Row 0, column 0 by hand.
        let by_hand: f32 = (0..HIDDEN).map(|i| x[i] * w[i * HIDDEN]).sum();
        assert!((projected[0] - by_hand).abs() < 1e-5);
        let attended = attend(&projected, &projected, &projected, 3);
        assert_eq!(attended.len(), ROWS * HEAD);
        assert!(attended.iter().all(|v| v.is_finite()));
        assert!(reference_pass() > 0.0);
    }

    #[test]
    fn sampling_works_loaded_and_unloaded_and_the_helpers_are_joined() {
        let mut c = HostClock::new(Instant::now());
        let idle = c.sample();
        c.load_siblings(true);
        c.load_siblings(true); // idempotent
        let loaded = c.sample(); // the caller's passes alone
        assert!(c.loaded);
        for f in [idle, loaded] {
            assert!(f.is_finite() && f > 0.0, "{f}");
        }
        assert_eq!(c.samples.len(), 2);
        // Dropped while loaded: the helpers must still come home.
        drop(c);
    }
}
