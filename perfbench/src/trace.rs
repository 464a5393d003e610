//! The outside-in layer trace.
//!
//! A span is recorded around each call the benchmark makes into one of the
//! crates (`lang`, `net`, `core`, `exec`, `runtime`, `serve`), with its
//! parent span. Spans stay in memory and are summarised when the run
//! ends. With tracing off, [`span`] is a plain call. Spans are recorded
//! on the benchmark's main thread only.

use std::cell::{Cell, RefCell};
use std::sync::OnceLock;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static SPANS: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static WINDOWS: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Nanoseconds since the trace origin.
pub fn now_ns() -> u64 {
    origin().elapsed().as_nanos() as u64
}

pub fn enable() {
    origin();
    ENABLED.with(|e| e.set(true));
}

fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Run `f` inside a span of `layer`/`name`.
pub fn span<T>(layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let index = SPANS.with(|spans| {
        let mut spans = spans.borrow_mut();
        let parent = STACK.with(|s| s.borrow().last().copied());
        spans.push(Span {
            layer,
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent,
        });
        spans.len() - 1
    });
    STACK.with(|s| s.borrow_mut().push(index));
    let out = f();
    STACK.with(|s| s.borrow_mut().pop());
    SPANS.with(|spans| spans.borrow_mut()[index].end_ns = now_ns());
    out
}

/// Accumulates the timed part of a workload: wall time between
/// [`Timed::start`] and [`Timed::stop`], with the windows kept for the
/// trace's coverage figure.
#[derive(Default)]
pub struct Timed {
    open: Option<u64>,
    pub total_ns: u64,
}

impl Timed {
    pub fn start(&mut self) {
        self.open = Some(now_ns());
    }

    pub fn stop(&mut self) {
        let start = self.open.take().expect("timed window was started");
        let end = now_ns();
        self.total_ns += end - start;
        if enabled() {
            WINDOWS.with(|w| w.borrow_mut().push((start, end)));
        }
    }
}

/// Everything recorded so far: spans and timed windows.
pub fn take() -> (Vec<Span>, Vec<(u64, u64)>) {
    (
        SPANS.with(|s| std::mem::take(&mut *s.borrow_mut())),
        WINDOWS.with(|w| std::mem::take(&mut *w.borrow_mut())),
    )
}

/// Total length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (start, end) in intervals {
        let (start, end) = (start.max(cursor), end.min(hi));
        if end > start {
            total += end - start;
            cursor = end;
        }
    }
    total
}

/// Each span's self time: its duration minus the part its child spans
/// cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, kids)| span.duration_ns() - covered(kids, span.start_ns, span.end_ns))
        .collect()
}

/// Share of the timed windows that top-level spans cover.
pub fn coverage(spans: &[Span], windows: &[(u64, u64)]) -> f64 {
    let roots: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    let total: u64 = windows.iter().map(|(a, b)| b - a).sum();
    let inside: u64 = windows
        .iter()
        .map(|&(a, b)| covered(roots.clone(), a, b))
        .sum();
    inside as f64 / total.max(1) as f64
}

/// Summed self time (ms) of the spans named `layer`/`name`.
pub fn self_ms(spans: &[Span], selfs: &[u64], layer: &str, name: &str) -> f64 {
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.layer == layer && s.name == name)
        .map(|(_, t)| *t as f64 / 1e6)
        .fold(0.0, |a, b| a + b)
}

/// Per-span cost of recording (ns), measured on a throwaway tracer state.
pub fn span_cost_ns() -> f64 {
    const N: usize = 20_000;
    let was = enabled();
    enable();
    let start = Instant::now();
    for i in 0..N {
        span("trace", "calibrate", || std::hint::black_box(i));
    }
    let cost = start.elapsed().as_nanos() as f64 / N as f64;
    SPANS.with(|s| s.borrow_mut().clear());
    ENABLED.with(|e| e.set(was));
    cost
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            layer: "t",
            name: "t",
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        // Root [0,100) with children [10,30), [20,50) (overlapping) and
        // [90,120) (running past the root's end); a grandchild [12,18)
        // counts against its own parent only.
        let spans = vec![
            at(0, 100, None),
            at(10, 30, Some(0)),
            at(20, 50, Some(0)),
            at(90, 120, Some(0)),
            at(12, 18, Some(1)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 40 - 10);
        assert_eq!(selfs[1], 20 - 6);
        assert_eq!(selfs[2], 30);
        assert_eq!(selfs[4], 6);
    }

    #[test]
    fn coverage_counts_roots_inside_windows() {
        let spans = vec![at(0, 40, None), at(5, 10, Some(0)), at(60, 80, None)];
        let windows = [(0, 50), (50, 100)];
        assert!((coverage(&spans, &windows) - 0.6).abs() < 1e-12);
    }
}
