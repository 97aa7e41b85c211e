//! In-memory spans recorded by the harness around its calls into each
//! layer, written as Chrome trace JSON when the run ends.
//!
//! A span carries the layer it belongs to (the crate whose public call it
//! wraps) and the span that caused it; spans of one request share `req`.

use std::path::Path;
use std::time::Instant;

use crate::json::Value;

/// Spans kept per run; later ones are counted in `dropped`, so a long run
/// cannot grow the trace without bound.
const MAX_SPANS: usize = 60_000;

pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub parent: Option<usize>,
    pub req: Option<u64>,
}

pub struct Spans {
    origin: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
    pub dropped: u64,
}

impl Spans {
    /// A recorder; a disabled one (untraced runs) records nothing.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Records a finished span and returns its id (for children to name as
    /// their parent).
    pub fn record(
        &mut self,
        name: &'static str,
        layer: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        req: Option<u64>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return None;
        }
        self.spans.push(Span {
            name,
            layer,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
            parent,
            req,
        });
        Some(self.spans.len() - 1)
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, layer, start, end, None, None);
        (out, (end - start).as_secs_f64())
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto): complete
    /// events, one track per layer.
    pub fn to_chrome_trace(&self) -> Value {
        let mut layers: Vec<&str> = Vec::new();
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let tid = layers
                    .iter()
                    .position(|l| *l == s.layer)
                    .unwrap_or_else(|| {
                        layers.push(s.layer);
                        layers.len() - 1
                    });
                let mut args = vec![("id".to_string(), Value::Num(id as f64))];
                if let Some(parent) = s.parent {
                    args.push(("parent".into(), Value::Num(parent as f64)));
                }
                if let Some(req) = s.req {
                    args.push(("req".into(), Value::Num(req as f64)));
                }
                Value::Obj(vec![
                    ("name".into(), Value::Str(s.name.into())),
                    ("cat".into(), Value::Str(s.layer.into())),
                    ("ph".into(), Value::Str("X".into())),
                    ("ts".into(), Value::Num(s.start_ns as f64 / 1e3)),
                    ("dur".into(), Value::Num(s.dur_ns as f64 / 1e3)),
                    ("pid".into(), Value::Num(1.0)),
                    ("tid".into(), Value::Num(tid as f64)),
                    ("args".into(), Value::Obj(args)),
                ])
            })
            .collect::<Vec<_>>();
        let names = layers.iter().enumerate().map(|(tid, layer)| {
            Value::Obj(vec![
                ("name".into(), Value::Str("thread_name".into())),
                ("ph".into(), Value::Str("M".into())),
                ("pid".into(), Value::Num(1.0)),
                ("tid".into(), Value::Num(tid as f64)),
                (
                    "args".into(),
                    Value::Obj(vec![("name".into(), Value::Str((*layer).into()))]),
                ),
            ])
        });
        Value::Obj(vec![
            (
                "traceEvents".into(),
                Value::Arr(names.chain(events).collect()),
            ),
            ("droppedSpans".into(), Value::Num(self.dropped as f64)),
        ])
    }

    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_chrome_trace().to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_nest_and_round_trip_as_a_chrome_trace() {
        let mut spans = Spans::new(true);
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let root = spans.record("serve.submit_wait", "serve", at(0), at(10), None, Some(1));
        let child = spans.record("panda.answer", "panda", at(2), at(6), root, Some(1));
        spans.record("store.probe", "store", at(3), at(4), child, Some(1));
        assert_eq!(spans.spans[child.unwrap()].parent, root);
        assert_eq!(spans.spans[root.unwrap()].dur_ns, 10_000_000);
        let trace = spans.to_chrome_trace();
        // Three layer-name records plus three spans.
        assert_eq!(trace.get("traceEvents").unwrap().as_arr().len(), 6);
        assert_eq!(crate::json::parse(&trace.to_json()).unwrap(), trace);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut spans = Spans::new(false);
        let now = Instant::now();
        assert_eq!(spans.record("x", "y", now, now, None, None), None);
        assert!(spans.spans.is_empty());
    }
}
