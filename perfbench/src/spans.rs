//! In-memory span recording for the traced run.
//!
//! A span is one timed call into a crate's public function, made from
//! the benchmark's own code: name, start, end, the span that caused it,
//! and the pass it belongs to. Spans are kept in memory and written out
//! when the run ends. Worker threads of the engine have no open span of
//! their own, so their top-level spans hang under the current pass span.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Optional qualifier, such as the scheme a simulation ran under.
    pub tag: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub pass: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// Open spans on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Collects spans from every thread of the process.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    pass: AtomicU32,
    /// The open pass span (0 = none): parent of thread-top-level spans.
    root: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            pass: AtomicU32::new(0),
            root: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs one pass under a `pass` span; spans opened by any thread
    /// while it runs carry `pass_id`.
    pub fn pass<T>(&self, pass_id: u32, f: impl FnOnce() -> T) -> T {
        self.pass.store(pass_id, Ordering::Relaxed);
        self.record("pass", None, true, f)
    }

    /// Times `f` as a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.record(name, None, false, f)
    }

    /// Times `f` as a span named `name`, qualified by `tag`.
    pub fn tagged<T>(&self, name: &'static str, tag: &'static str, f: impl FnOnce() -> T) -> T {
        self.record(name, Some(tag), false, f)
    }

    fn record<T>(
        &self,
        name: &'static str,
        tag: Option<&'static str>,
        is_root: bool,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| open.borrow().last().copied()).or_else(|| {
            let root = self.root.load(Ordering::Relaxed);
            (root != 0).then_some(root)
        });
        if is_root {
            self.root.store(id, Ordering::Relaxed);
        }
        OPEN.with(|open| open.borrow_mut().push(id));
        let start = self.epoch.elapsed();
        let value = f();
        let end = self.epoch.elapsed();
        OPEN.with(|open| open.borrow_mut().pop());
        if is_root {
            self.root.store(0, Ordering::Relaxed);
        }
        let span = Span {
            id,
            parent,
            name,
            tag,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
            pass: self.pass.load(Ordering::Relaxed),
        };
        self.spans.lock().expect("span buffer poisoned").push(span);
        value
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover. Children running in parallel on several
/// threads are merged first, so overlapping children are not counted
/// twice. Returned in the order of `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children
                .entry(parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(start, end) in kids.iter() {
                    let (start, end) = (start.max(cursor), end.min(s.end_ns));
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            tag: None,
            start_ns,
            end_ns,
            pass: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // 1 [0, 100) holds 2 [10, 40) and 3 [50, 90); 2 holds 4 [15, 25).
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 50, 90),
            span(4, Some(2), 15, 25),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_parallel_children_count_once() {
        // Two worker threads' children overlap inside the parent.
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 60),
            span(3, Some(1), 30, 80),
            span(4, Some(1), 70, 120),
        ];
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn tracer_links_nested_and_worker_spans() {
        let tracer = Tracer::new();
        tracer.pass(7, || {
            tracer.span("outer", || tracer.span("inner", || ()));
            std::thread::scope(|s| {
                s.spawn(|| tracer.span("worker", || ()));
            });
        });
        let spans = tracer.spans();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).expect(n);
        let pass = by_name("pass");
        assert_eq!(pass.parent, None);
        assert_eq!(by_name("outer").parent, Some(pass.id));
        assert_eq!(by_name("inner").parent, Some(by_name("outer").id));
        assert_eq!(by_name("worker").parent, Some(pass.id));
        assert!(spans.iter().all(|s| s.pass == 7));
        let times = self_times(&spans);
        assert!(times.iter().zip(&spans).all(|(t, s)| *t <= s.duration_ns()));
    }
}
