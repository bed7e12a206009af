//! Spans recorded around the benchmark's calls into each layer, kept in
//! memory and written once as Chrome trace-event JSON (loadable in
//! Perfetto).

use std::time::Instant;
use ziv_common::json::JsonValue;

/// Index of a span in its [`Spans`] list.
pub type SpanId = usize;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `driver.run`.
    pub name: &'static str,
    /// Start, µs since the recorder was created.
    pub start_us: f64,
    /// End, µs since the recorder was created (`None` while open).
    pub end_us: Option<f64>,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The cell the call served, when it served one.
    pub cell: Option<String>,
    /// Counters read at the span's end.
    pub args: Vec<(String, JsonValue)>,
}

/// An in-memory span list.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span.
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        cell: Option<String>,
    ) -> SpanId {
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: None,
            parent,
            cell,
            args: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Closes a span, attaching counters read at its end.
    pub fn end(&mut self, id: SpanId, args: Vec<(String, JsonValue)>) {
        let end = self.now_us();
        let s = &mut self.spans[id];
        s.end_us = Some(end);
        s.args = args;
    }

    /// Chrome trace-event document: one complete (`X`) event per closed
    /// span, on one thread, with its parent and cell in `args`.
    pub fn to_chrome_json(&self) -> JsonValue {
        let events = self
            .spans
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                let end = s.end_us?;
                let mut args = vec![("span".to_string(), JsonValue::u64(i as u64))];
                if let Some(p) = s.parent {
                    args.push(("parent".into(), JsonValue::u64(p as u64)));
                }
                if let Some(c) = &s.cell {
                    args.push(("cell".into(), JsonValue::str(c.as_str())));
                }
                args.extend(s.args.iter().cloned());
                Some(JsonValue::Obj(vec![
                    ("name".into(), JsonValue::str(s.name)),
                    ("cat".into(), JsonValue::str("perfbench")),
                    ("ph".into(), JsonValue::str("X")),
                    ("ts".into(), JsonValue::f64(s.start_us)),
                    ("dur".into(), JsonValue::f64(end - s.start_us)),
                    ("pid".into(), JsonValue::u64(1)),
                    ("tid".into(), JsonValue::u64(1)),
                    ("args".into(), JsonValue::Obj(args)),
                ]))
            })
            .collect();
        JsonValue::Obj(vec![
            ("traceEvents".into(), JsonValue::Arr(events)),
            ("displayTimeUnit".into(), JsonValue::str("ms")),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lists_closed_spans_with_parent_and_cell() {
        let mut t = Spans::new();
        let root = t.begin("pass", None, None);
        let child = t.begin("driver.run", Some(root), Some("I-LRU/homo-hotl2#0".into()));
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(child, vec![("accesses".into(), JsonValue::u64(7))]);
        t.end(root, Vec::new());
        let _open = t.begin("never-closed", None, None);

        let doc = ziv_common::json::parse(&t.to_chrome_json().to_string()).unwrap();
        let events = doc
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(events.len(), 2, "open spans are not exported");
        let e = &events[1];
        assert_eq!(e.get("ph").and_then(JsonValue::as_str), Some("X"));
        assert!(e.get("dur").and_then(JsonValue::as_f64).unwrap() >= 2000.0);
        let args = e.get("args").unwrap();
        assert_eq!(args.get("parent").and_then(JsonValue::as_u64), Some(0));
        assert_eq!(args.get("accesses").and_then(JsonValue::as_u64), Some(7));
        assert!(args.get("cell").is_some());
    }
}
