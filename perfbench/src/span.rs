//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a layer can be wrapped in a span:
//! name, start, end, the enclosing span, and the request it serves. Spans
//! stay in memory until the run ends and are then written out in one go,
//! so recording costs two clock reads and a `Vec` push. A disabled
//! recorder records nothing, which is how the untraced (end-to-end) runs
//! use the same code path.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Request id for spans that serve no single query (set-up, server steps).
pub const NO_REQUEST: u64 = u64::MAX;

/// One finished span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Recorder::enter`]; pass it back to
/// [`Recorder::exit`]. Opaque so spans can only close in stack order.
#[must_use]
pub struct Open(Option<usize>);

pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, request: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            request,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close in the order they opened");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name, request);
        let out = f();
        self.exit(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the time its direct
    /// children cover. Children never overlap (they run on one thread, in
    /// stack order), so the subtraction is exact.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.duration_ns() - c)
            .collect()
    }

    /// Check that every span lies inside its parent and that all spans
    /// were closed. Returns a description of the first violation.
    pub fn check_nesting(&self) -> Result<(), String> {
        if !self.stack.is_empty() {
            return Err(format!("{} spans still open", self.stack.len()));
        }
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_ns < s.start_ns {
                return Err(format!("span {i} ({}) ends before it starts", s.name));
            }
            if let Some(p) = s.parent {
                let ps = &self.spans[p];
                if s.start_ns < ps.start_ns || s.end_ns > ps.end_ns {
                    return Err(format!(
                        "span {i} ({}) leaves its parent {p} ({})",
                        s.name, ps.name
                    ));
                }
            }
        }
        Ok(())
    }

    /// Self time summed per span name.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times_ns()) {
            *out.entry(s.name).or_insert(0) += t;
        }
        out
    }

    /// Durations (ns) of every span named `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// The spans as CSV: `id,parent,request,name,start_ns,end_ns`, with
    /// an empty field for a missing parent or request.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("id,parent,request,name,start_ns,end_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            let request = if s.request == NO_REQUEST {
                String::new()
            } else {
                s.request.to_string()
            };
            let _ = writeln!(
                out,
                "{i},{parent},{request},{},{},{}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut r = Recorder::new(true);
        let outer = r.enter("outer", 1);
        r.time("inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.exit(outer);
        r.check_nesting().unwrap();
        let selfs = r.self_times_ns();
        let spans = r.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(selfs[0], spans[0].duration_ns() - spans[1].duration_ns());
        assert_eq!(selfs[1], spans[1].duration_ns());
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut r = Recorder::new(false);
        let o = r.enter("x", 0);
        r.exit(o);
        assert!(r.spans().is_empty());
    }
}
