//! Spans around the benchmark's calls into each layer, kept in memory
//! and written out at exit as Chrome trace-event JSON (opens in
//! Perfetto or `chrome://tracing`).

use serde::Value;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// One timed call into a layer.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Index of this span in its trace.
    pub id: usize,
    /// The span that made the call, `None` for a root.
    pub parent: Option<usize>,
    /// Layer boundary, `<layer>.<call>` (e.g. `topology.build`).
    pub name: &'static str,
    /// Sweep point the span belongs to, `None` outside any point.
    pub point: Option<usize>,
    /// Small stable index of the host thread that ran the span.
    pub thread: u32,
    /// Host ns since the trace epoch.
    pub start_ns: u64,
    /// Host ns since the trace epoch.
    pub end_ns: u64,
    /// Work counted at the boundary (e.g. arrivals generated), 0 if none.
    pub count: u64,
}

impl Span {
    /// Host seconds the span covers.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

fn thread_index() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    thread_local! {
        static INDEX: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    INDEX.with(|i| *i)
}

/// Records nested spans on one thread; recorders from other threads
/// are folded in with [`Recorder::absorb`].
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    point: Option<usize>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// An empty recorder timing against `epoch`, tagging its spans with
    /// `point`.
    pub fn new(epoch: Instant, point: Option<usize>) -> Recorder {
        Recorder {
            epoch,
            point,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, a child of the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            point: self.point,
            thread: thread_index(),
            start_ns,
            end_ns: start_ns,
            count: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Add `n` to the work count of the innermost open span.
    pub fn count(&mut self, n: u64) {
        if let Some(&id) = self.open.last() {
            self.spans[id].count += n;
        }
    }

    /// Move `other`'s spans into this recorder; its roots become
    /// children of this recorder's innermost open span.
    pub fn absorb(&mut self, other: Recorder) {
        let offset = self.spans.len();
        let parent = self.open.last().copied();
        for mut span in other.spans {
            span.id += offset;
            span.parent = span.parent.map(|p| p + offset).or(parent);
            self.spans.push(span);
        }
    }

    /// The recorded spans, in start order per thread.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Check that spans nest: every child lies inside its parent, and the
/// children a parent ran on any one thread sum to no more than it.
///
/// # Errors
///
/// A description of the first span that breaks either rule.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    let mut child_ns: std::collections::BTreeMap<(usize, u32), u64> = Default::default();
    for s in spans {
        if s.end_ns < s.start_ns {
            return Err(format!("span {} `{}` ends before it starts", s.id, s.name));
        }
        let Some(p) = s.parent else { continue };
        let parent = spans
            .get(p)
            .ok_or_else(|| format!("span {} `{}` has no parent {p}", s.id, s.name))?;
        if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
            return Err(format!(
                "span {} `{}` lies outside its parent `{}`",
                s.id, s.name, parent.name
            ));
        }
        *child_ns.entry((p, s.thread)).or_default() += s.end_ns - s.start_ns;
    }
    for ((p, thread), sum) in child_ns {
        let parent = &spans[p];
        if sum > parent.end_ns - parent.start_ns {
            return Err(format!(
                "children of span {p} `{}` on thread {thread} sum to more than it",
                parent.name
            ));
        }
    }
    Ok(())
}

/// Chrome trace-event JSON of `spans`: one complete (`"ph": "X"`)
/// event per span, with its parent, point and count as arguments.
pub fn chrome_json(spans: &[Span]) -> String {
    let events = spans
        .iter()
        .map(|s| {
            let mut args = vec![("id".to_string(), Value::U64(s.id as u64))];
            if let Some(p) = s.parent {
                args.push(("parent".to_string(), Value::U64(p as u64)));
            }
            if let Some(p) = s.point {
                args.push(("point".to_string(), Value::U64(p as u64)));
            }
            if s.count > 0 {
                args.push(("count".to_string(), Value::U64(s.count)));
            }
            Value::Map(vec![
                ("name".to_string(), Value::Str(s.name.to_string())),
                ("cat".to_string(), Value::Str("perfbench".to_string())),
                ("ph".to_string(), Value::Str("X".to_string())),
                ("ts".to_string(), Value::F64(s.start_ns as f64 / 1e3)),
                (
                    "dur".to_string(),
                    Value::F64((s.end_ns - s.start_ns) as f64 / 1e3),
                ),
                ("pid".to_string(), Value::U64(1)),
                ("tid".to_string(), Value::U64(u64::from(s.thread))),
                ("args".to_string(), Value::Map(args)),
            ])
        })
        .collect();
    let doc = Value::Map(vec![
        ("traceEvents".to_string(), Value::Seq(events)),
        ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
    ]);
    serde_json::to_string(&doc).expect("trace events serialize")
}
