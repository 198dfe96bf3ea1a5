//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only by this benchmark, around its own calls into
//! the library's public API, never inside the library. Each span carries
//! a name, start and end (ns since the run's origin), its parent span
//! and a trace id shared by every span of one (workload, run, epoch,
//! rank). Spans stay in memory and are written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Identifies the spans of one (workload, run, epoch, rank).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceId {
    /// Set-up (session) index within the run.
    pub session: u32,
    /// Epoch within the session; `u32::MAX` outside any epoch.
    pub epoch: u32,
    /// Rank, or 0 for single-threaded calls.
    pub rank: u32,
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: TraceId,
}

/// Per-thread span log sharing the run's clock origin.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Counts recorded at span boundaries: (span, name, value).
    counts: Vec<(usize, &'static str, u64)>,
}

impl SpanLog {
    /// A log measuring from `origin`; a disabled log records nothing.
    pub fn new(origin: Instant, enabled: bool) -> SpanLog {
        SpanLog {
            origin,
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// Start or stop recording new spans; open spans still close.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; nested calls become children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        id: TraceId,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now();
        out
    }

    /// Record counts on the latest span called `name`, at its end
    /// (while recording).
    pub fn count_on(&mut self, name: &str, counts: &[(&'static str, u64)]) {
        if !self.enabled {
            return;
        }
        if let Some(idx) = self.spans.iter().rposition(|s| s.name == name) {
            self.counts.extend(counts.iter().map(|&(n, v)| (idx, n, v)));
        }
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Append another log's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.counts
            .extend(other.counts.into_iter().map(|(i, n, v)| (i + base, n, v)));
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Per span name: (count, total ns, self ns). Self time is the
    /// span's duration minus the part of it its children cover.
    pub fn layer_table(&self) -> BTreeMap<&'static str, (usize, u64, u64)> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut table = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut iv: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| (self.spans[c].start_ns, self.spans[c].end_ns))
                .collect();
            iv.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    _ => {
                        if let Some((ca, cb)) = cur {
                            covered += cb.saturating_sub(ca);
                        }
                        cur = Some((a, b));
                    }
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb.saturating_sub(ca);
            }
            let dur = s.end_ns - s.start_ns;
            let e = table.entry(s.name).or_insert((0usize, 0u64, 0u64));
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(covered);
        }
        table
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(
        &self,
        workload: &str,
        seed: u64,
        path: &std::path::Path,
    ) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut counts = self.counts.clone();
        counts.sort_by_key(|c| c.0);
        let mut counts = counts.into_iter().peekable();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let mut mine = Vec::new();
            while let Some((_, n, v)) = counts.next_if(|c| c.0 == i) {
                mine.push(format!("\"{n}\":{v}"));
            }
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"trace\":\"{workload}/{seed}/{}.{}/{}\",\"counts\":{{{}}}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.id.session,
                if s.id.epoch == u32::MAX {
                    "-".to_string()
                } else {
                    s.id.epoch.to_string()
                },
                s.id.rank,
                mine.join(",")
            )?;
        }
        out.flush()
    }
}
