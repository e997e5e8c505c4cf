//! The benchmark's own spans: name, start, end, parent, and (for calls
//! that take a `Counters`) the counter delta of the call. Spans are kept in
//! memory and summarized when the run ends; nothing is attached to the
//! program's `trace` sink.

use gpu_sim::timing::counter_roofline;
use gpu_sim::{CounterSnapshot, Counters, DeviceProfile};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub delta: Option<CounterSnapshot>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A single-threaded span recorder; each client thread owns one.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    inner: RefCell<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Self {
        Recorder {
            origin,
            inner: RefCell::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` in a span named `name`, nested under the innermost open
    /// span, recording the delta `f` charged to `counters`.
    pub fn counted<R>(&self, name: &'static str, counters: &Counters, f: impl FnOnce() -> R) -> R {
        self.enter(name, Some(counters), f).0
    }

    /// Run `f` in a span (no counters) and also return the span's
    /// duration in seconds.
    pub fn timed<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        self.enter(name, None, f)
    }

    fn enter<R>(
        &self,
        name: &'static str,
        counters: Option<&Counters>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let idx = {
            let mut inner = self.inner.borrow_mut();
            let idx = inner.spans.len();
            let parent = inner.open.last().copied();
            inner.spans.push(Span {
                name,
                parent,
                start_ns: 0,
                end_ns: 0,
                delta: None,
            });
            inner.open.push(idx);
            idx
        };
        let before = counters.map(Counters::snapshot);
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        let delta = counters.zip(before).map(|(c, b)| c.snapshot().since(&b));
        let mut inner = self.inner.borrow_mut();
        inner.open.pop();
        let s = &mut inner.spans[idx];
        s.start_ns = start;
        s.end_ns = end;
        s.delta = delta;
        (out, (end - start) as f64 * 1e-9)
    }

    /// The recorded spans (closed ones only have meaningful ends).
    pub fn into_spans(self) -> Vec<Span> {
        self.inner.into_inner().spans
    }
}

/// Move `more` (one recorder's spans) onto the end of `all`, keeping
/// parent links pointing at the right spans.
pub fn append(all: &mut Vec<Span>, more: Vec<Span>) {
    let base = all.len();
    all.extend(more.into_iter().map(|s| Span {
        parent: s.parent.map(|p| p + base),
        ..s
    }));
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone)]
pub struct Totals {
    pub calls: u64,
    pub total_ns: u64,
    /// Duration minus the time covered by direct children.
    pub self_ns: u64,
    pub delta: CounterSnapshot,
    pub modeled_s: f64,
}

/// Sum spans by name. Each span's modeled time is `counter_roofline` of
/// its own delta, so a layer's modeled time is the sum over its calls.
pub fn totals(spans: &[Span], device: &DeviceProfile) -> BTreeMap<&'static str, Totals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns().saturating_sub(child_ns[i]);
        if let Some(d) = &s.delta {
            t.delta = t.delta.merged(d);
            t.modeled_s += counter_roofline(device, d);
        }
    }
    out
}

/// The span table printed at the end of a traced run.
pub fn table(totals: &BTreeMap<&'static str, Totals>) -> String {
    let mut out = String::from("# spans: name calls total_ms self_ms modeled_ms\n");
    for (name, t) in totals {
        out.push_str(&format!(
            "# span {name} {} {:.3} {:.3} {:.3}\n",
            t.calls,
            t.total_ns as f64 * 1e-6,
            t.self_ns as f64 * 1e-6,
            t.modeled_s * 1e3
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_deltas_are_per_span() {
        let rec = Recorder::new(Instant::now());
        let c = Counters::new();
        rec.timed("outer", || {
            rec.counted("inner", &c, || {
                c.add_loaded(64);
                std::thread::sleep(std::time::Duration::from_millis(2));
            });
            c.add_loaded(1);
        });
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        let t = totals(&spans, &DeviceProfile::a100());
        let (outer, inner) = (&t["outer"], &t["inner"]);
        assert_eq!(inner.delta.bytes_loaded, 64);
        assert_eq!(outer.delta.bytes_loaded, 0, "outer records no counters");
        assert!(inner.total_ns >= 2_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(inner.modeled_s > 0.0);

        let mut all = spans.clone();
        append(&mut all, spans);
        assert_eq!(all[3].parent, Some(2));
        let twice = super::totals(&all, &DeviceProfile::a100());
        assert_eq!(twice["outer"].self_ns, 2 * outer.self_ns);
    }
}
