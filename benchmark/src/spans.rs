//! In-memory spans around the calls into each layer, and the timing adapters
//! that record them.
//!
//! A span is a name, a start and an end (nanoseconds since the process's
//! first clock read), the span that caused it, the pipeline lane it served and
//! the thread it ran on. Spans stay in memory and are written once, as
//! Chrome-trace JSON, when the rep ends. A span's self time is its duration
//! minus the durations of its children recorded on the same thread: work a
//! child did on another thread overlapped the parent instead of displacing it.
//!
//! [`Timed`] wraps a controller, arbiter or elastic policy, forwards every call
//! through the public trait and, when tracing, records one span per call. The
//! engine cannot tell a wrapped object from a bare one, so a traced run
//! simulates exactly what an untraced run does.

use loki_sim::{
    AllocationPlan, ArbiterObservation, CompiledPlan, Controller, DecisionReason, ElasticAction,
    ElasticObservation, ElasticPolicy, ObservedState, ResourceArbiter,
};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Nanoseconds since the process first read this clock.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A small number naming the calling thread (0 for the first thread to ask).
pub fn thread_no() -> u32 {
    THREAD.with(|t| *t)
}

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in its [`SpanLog`].
    pub parent: Option<usize>,
    /// The pipeline lane the call served (`None` for cluster-level work).
    pub lane: Option<u32>,
    pub thread: u32,
    /// What the call returned: 1 for an installed plan or partition, the
    /// action count for an elastic decision, 0 for "keep the current one".
    pub items: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The spans of one rep, indexed by position.
#[derive(Debug, Default)]
pub struct SpanLog {
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// Start a span on the calling thread; returns its index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            lane: None,
            thread: thread_no(),
            items: 0,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = now_ns();
    }

    /// Run `f` inside a span named `name` under `parent`.
    pub fn time<R>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, Some(parent));
        let out = f();
        self.close(id);
        out
    }

    /// Append spans recorded elsewhere (by a [`Timed`] adapter) as children
    /// of `parent`.
    pub fn adopt(&mut self, parent: usize, spans: Vec<Span>) {
        self.spans.extend(spans.into_iter().map(|s| Span {
            parent: Some(parent),
            ..s
        }));
    }

    pub fn dur_s(&self, id: usize) -> f64 {
        self.spans[id].dur_ns() as f64 * 1e-9
    }

    /// Every span with this name.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Self time of every span, index-aligned with `spans`.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut self_ns: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                if self.spans[p].thread == span.thread {
                    self_ns[p] -= span.dur_ns();
                }
            }
        }
        self_ns
    }

    /// Chrome trace-event JSON (loadable in Perfetto): one complete event per
    /// span, `tid` = thread, with the span's id, parent, lane, item count and
    /// self time in `args`. Times are microseconds with nanosecond digits.
    pub fn to_chrome_json(&self) -> String {
        let us = |ns: u64| format!("{}.{:03}", ns / 1000, ns % 1000);
        let self_ns = self.self_ns();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let mut threads: Vec<u32> = self.spans.iter().map(|s| s.thread).collect();
        threads.sort_unstable();
        threads.dedup();
        for t in &threads {
            let _ = writeln!(
                out,
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{t},\"args\":{{\"name\":\"thread {t}\"}}}},"
            );
        }
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let lane = s.lane.map_or("null".to_string(), |l| l.to_string());
            let _ = write!(
                out,
                "{{\"ph\":\"X\",\"name\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"lane\":{lane},\"items\":{},\"self_ns\":{}}}}}",
                s.name,
                s.thread,
                us(s.start_ns),
                us(s.dur_ns()),
                s.items,
                self_ns[i],
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}

/// A forwarding adapter that times every call into the wrapped layer when
/// tracing is on (see the module docs).
pub struct Timed<T> {
    inner: T,
    lane: Option<u32>,
    spans: Option<Vec<Span>>,
}

impl<T> Timed<T> {
    pub fn new(inner: T, lane: Option<u32>, traced: bool) -> Self {
        Timed {
            inner,
            lane,
            spans: traced.then(Vec::new),
        }
    }

    /// The spans recorded so far (empty when not tracing).
    pub fn take_spans(&mut self) -> Vec<Span> {
        self.spans.as_mut().map(std::mem::take).unwrap_or_default()
    }

    fn call<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut T) -> R,
        items: impl FnOnce(&R) -> u32,
    ) -> R {
        let Some(spans) = self.spans.as_mut() else {
            return f(&mut self.inner);
        };
        let start_ns = now_ns();
        let out = f(&mut self.inner);
        let end_ns = now_ns();
        spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            lane: self.lane,
            thread: thread_no(),
            items: items(&out),
        });
        out
    }
}

impl<C: Controller> Controller for Timed<C> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn control_interval_s(&self) -> f64 {
        self.inner.control_interval_s()
    }

    fn routing_interval_s(&self) -> f64 {
        self.inner.routing_interval_s()
    }

    fn plan(&mut self, observed: &ObservedState<'_>) -> Option<AllocationPlan> {
        self.call(
            "controller.plan",
            |c| c.plan(observed),
            |p| p.is_some() as u32,
        )
    }

    fn routing(&mut self, observed: &ObservedState<'_>) -> Option<CompiledPlan> {
        self.call(
            "controller.routing",
            |c| c.routing(observed),
            |p| p.is_some() as u32,
        )
    }
}

impl<A: ResourceArbiter> ResourceArbiter for Timed<A> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn rebalance_interval_s(&self) -> f64 {
        self.inner.rebalance_interval_s()
    }

    fn partition(&mut self, observation: &ArbiterObservation<'_>) -> Option<Vec<usize>> {
        self.call(
            "arbiter.partition",
            |a| a.partition(observation),
            |p| p.is_some() as u32,
        )
    }

    fn decision_reason(&self) -> Option<&'static str> {
        self.inner.decision_reason()
    }
}

impl<P: ElasticPolicy> ElasticPolicy for Timed<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, observation: &ElasticObservation<'_>) -> Vec<ElasticAction> {
        self.call(
            "provisioner.decide",
            |p| p.decide(observation),
            |a| a.len() as u32,
        )
    }

    fn last_reasons(&mut self) -> Vec<DecisionReason> {
        self.inner.last_reasons()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, thread: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            lane: None,
            thread,
            items: 0,
        }
    }

    #[test]
    fn self_time_subtracts_same_thread_children_only() {
        let log = SpanLog {
            spans: vec![
                span("run", 0, 1_000, None, 0),
                span("controller.plan", 100, 300, Some(0), 0),
                span("controller.routing", 400, 450, Some(0), 0),
                // Ran on a worker thread while the run span waited: overlaps,
                // does not displace.
                span("controller.routing", 500, 900, Some(0), 1),
                span("inner", 120, 170, Some(1), 0),
            ],
        };
        assert_eq!(log.self_ns(), vec![750, 150, 50, 400, 50]);
        // Self time plus same-thread children reconstructs every duration.
        let self_ns = log.self_ns();
        for (i, s) in log.spans.iter().enumerate() {
            let children: u64 = log
                .spans
                .iter()
                .filter(|c| c.parent == Some(i) && c.thread == s.thread)
                .map(Span::dur_ns)
                .sum();
            assert_eq!(self_ns[i] + children, s.dur_ns());
        }
    }

    #[test]
    fn adopted_spans_take_the_new_parent() {
        let mut log = SpanLog::default();
        let run = log.open("run", None);
        let mut timed = Timed::new((), Some(3), true);
        timed.call("controller.plan", |_| (), |_| 1);
        log.close(run);
        log.adopt(run, timed.take_spans());
        assert_eq!(log.spans.len(), 2);
        assert_eq!(log.spans[1].parent, Some(run));
        assert_eq!(log.spans[1].lane, Some(3));
        assert_eq!(log.spans[1].items, 1);
        let json = log.to_chrome_json();
        assert!(json.contains("\"name\":\"controller.plan\""));
        assert!(json.contains("\"parent\":0"));
    }

    #[test]
    fn untraced_adapters_record_nothing() {
        let mut timed = Timed::new(5u32, None, false);
        assert_eq!(timed.call("x", |v| *v + 1, |_| 1), 6);
        assert!(timed.take_spans().is_empty());
    }
}
