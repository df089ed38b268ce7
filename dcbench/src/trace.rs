//! Spans recorded by the harness around each call into a layer.
//!
//! Spans live in memory until the run ends. A tracer that is off costs one
//! predictable branch per call site, so the untraced legs that produce the
//! end-to-end metrics run the same code as the traced ones.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    parent: u32,
    /// The step (batch index) this span worked on.
    pub batch: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span recorder. Threads of a leg share `origin` so their
/// spans are on one time line.
pub struct Tracer {
    on: bool,
    origin: Instant,
    thread: &'static str,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Clone, Copy)]
pub struct Open(u32);

impl Tracer {
    pub fn new(on: bool, origin: Instant, thread: &'static str) -> Tracer {
        Tracer {
            on,
            origin,
            thread,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now(), "main")
    }

    /// The instant every span time counts from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    #[inline]
    pub fn enter(&mut self, name: &'static str, batch: u64) -> Open {
        if !self.on {
            return Open(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.stack.push(id);
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            batch,
        });
        Open(id)
    }

    #[inline]
    pub fn exit(&mut self, open: Open) {
        if !self.on {
            return;
        }
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        if let Some(span) = self.spans.get_mut(open.0 as usize) {
            span.end_ns = end_ns;
        }
        self.stack.pop();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: a span's duration minus the part its
    /// children cover.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(c) = child_ns.get_mut(s.parent as usize) {
                *c += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_ns) {
            *out.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(*c);
        }
        out
    }

    /// Sorted durations (ns) of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect();
        v.sort_unstable();
        v
    }

    /// Append the spans as JSON lines.
    pub fn write_jsonl(&self, leg: &str, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_owned()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"leg\":\"{leg}\",\"thread\":\"{}\",\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"batch\":{},\"start_ns\":{},\"end_ns\":{}}}",
                self.thread, s.name, s.batch, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, Instant::now(), "main");
        let root = t.enter("root", 0);
        let child = t.enter("child", 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(child);
        t.exit(root);
        let self_ns = t.self_ns();
        let total: u64 = self_ns.values().sum();
        assert_eq!(total, t.spans()[0].dur_ns());
        assert!(self_ns["child"] >= 2_000_000);
        assert!(self_ns["root"] < self_ns["child"]);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::off();
        let o = t.enter("x", 1);
        t.exit(o);
        assert!(t.spans().is_empty());
    }
}
