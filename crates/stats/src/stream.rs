//! Streaming JSONL export of the probe event stream.
//!
//! [`StreamProbe`] writes one JSON record per line to any [`std::io::Write`]
//! sink — one validated record per probe event, preceded by a header and
//! the block/node declarations — so a run can be tailed, piped, or archived
//! without buffering the whole stream in memory. The JSON is hand-rolled
//! like the Chrome exporter (DESIGN.md §8: no dependencies).
//!
//! # Schema `tyr-events/v1`
//!
//! Line 1 is the header: `{"schema":"tyr-events/v1","kinds":[...]}`.
//! Declarations follow as `{"decl":"block","id":N,"name":S}` and
//! `{"decl":"node","id":N,"label":S,"block":N}`. Every subsequent line is
//! one event record carrying the cycle (`"c"`), the taxonomy kind name
//! (`"k"`, see [`EventKind::name`]), and the kind's payload fields:
//!
//! | kind | fields |
//! |------|--------|
//! | `fired`, `produced` | `node` |
//! | `consumed` | `node`, `n` |
//! | `tag-allocated`, `tag-freed` | `space`, `tag` |
//! | `tag-changed` | `node`, `from`, `to` |
//! | `block-enter`, `block-exit` | `block`, `tag` |
//! | `stall-begin` | `node`, `tag`, `reason` |
//! | `stall-end` | `node`, `tag` |
//! | `fault-injected` | `node`, `fault` |
//! | `mem-access` | `node`, `addr`, `w` (1 = store, 0 = load) |
//! | `mem-miss` | `node`, `addr`, `l2` (1 = missed L2 too, 0 = L2 hit) |
//!
//! The number of records with a `"c"` field equals the total event count a
//! [`crate::probe::CountingProbe`] sees on the same run — the parity the CI
//! timeline gate checks. [`validate`] re-parses a document line by line and
//! returns the per-kind counts.
//!
//! [`Probe::event`] cannot return an error, so I/O failures are latched:
//! the sink stops writing after the first failure and [`StreamProbe::finish`]
//! surfaces it.

use std::collections::HashMap;
use std::io::Write;

use crate::json::{self, uint, Kind, Parser};
use crate::probe::{EventKind, FaultKind, Probe, ProbeEvent, StallReason};

/// The schema identifier written to and required of every JSONL document.
pub const SCHEMA: &str = "tyr-events/v1";

/// The streaming JSONL probe sink. See the module docs for the record
/// layout.
///
/// # Example
///
/// ```
/// use tyr_stats::probe::{Probe, ProbeEvent};
/// use tyr_stats::stream::{self, StreamProbe};
///
/// let mut s = StreamProbe::new(Vec::new());
/// s.declare_node(3, "mul", 0);
/// s.event(7, ProbeEvent::NodeFired { node: 3 });
/// let bytes = s.finish().unwrap();
/// let text = String::from_utf8(bytes).unwrap();
/// let summary = stream::validate(&text).unwrap();
/// assert_eq!(summary.events, 1);
/// ```
#[derive(Debug)]
pub struct StreamProbe<W: Write> {
    out: W,
    buf: String,
    events: u64,
    err: Option<String>,
}

impl<W: Write> StreamProbe<W> {
    /// Wraps a writer and emits the schema header line. Callers streaming
    /// to a file should pass a `BufWriter`; each record is a single
    /// `write_all` of one line.
    pub fn new(out: W) -> Self {
        let mut s = StreamProbe { out, buf: String::with_capacity(128), events: 0, err: None };
        s.buf.push_str("{\"schema\":\"");
        s.buf.push_str(SCHEMA);
        s.buf.push_str("\",\"kinds\":[");
        for (i, k) in EventKind::ALL.iter().enumerate() {
            if i > 0 {
                s.buf.push(',');
            }
            s.buf.push('"');
            s.buf.push_str(k.name());
            s.buf.push('"');
        }
        s.buf.push_str("]}");
        s.write_line();
        s
    }

    /// Event records written so far (excludes the header and declarations).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Flushes and returns the inner writer.
    ///
    /// # Errors
    ///
    /// Returns the first latched write error, or the flush error.
    pub fn finish(mut self) -> Result<W, String> {
        if let Some(e) = self.err {
            return Err(e);
        }
        self.out.flush().map_err(|e| format!("flushing event stream: {e}"))?;
        Ok(self.out)
    }

    /// Writes `self.buf` plus a newline, latching the first error.
    fn write_line(&mut self) {
        if self.err.is_none() {
            self.buf.push('\n');
            if let Err(e) = self.out.write_all(self.buf.as_bytes()) {
                self.err = Some(format!("writing event stream: {e}"));
            }
        }
        self.buf.clear();
    }
}

impl<W: Write> Probe for StreamProbe<W> {
    fn declare_block(&mut self, block: u32, name: &str) {
        uint(&mut self.buf, "{\"decl\":\"block\",\"id\":", block.into());
        self.buf.push_str(",\"name\":");
        json::write_str(&mut self.buf, name);
        self.buf.push('}');
        self.write_line();
    }

    fn declare_node(&mut self, node: u32, label: &str, block: u32) {
        uint(&mut self.buf, "{\"decl\":\"node\",\"id\":", node.into());
        self.buf.push_str(",\"label\":");
        json::write_str(&mut self.buf, label);
        uint(&mut self.buf, ",\"block\":", block.into());
        self.buf.push('}');
        self.write_line();
    }

    fn event(&mut self, cycle: u64, ev: ProbeEvent) {
        self.events += 1;
        let b = &mut self.buf;
        uint(b, "{\"c\":", cycle);
        b.push_str(",\"k\":\"");
        b.push_str(ev.kind().name());
        b.push('"');
        let node_tag = |b: &mut String, node: u32, tag: u64| {
            uint(b, ",\"node\":", node.into());
            uint(b, ",\"tag\":", tag);
        };
        let mem = |b: &mut String, node: u32, addr: i64, flag: &str, set: bool| {
            uint(b, ",\"node\":", node.into());
            b.push_str(",\"addr\":");
            json::write_i64(b, addr);
            uint(b, flag, set.into());
        };
        match ev {
            ProbeEvent::NodeFired { node } | ProbeEvent::TokenProduced { node } => {
                uint(b, ",\"node\":", node.into());
            }
            ProbeEvent::TokenConsumed { node, count } => {
                uint(b, ",\"node\":", node.into());
                uint(b, ",\"n\":", count.into());
            }
            ProbeEvent::TagAllocated { space, tag } | ProbeEvent::TagFreed { space, tag } => {
                uint(b, ",\"space\":", space.into());
                uint(b, ",\"tag\":", tag);
            }
            ProbeEvent::TagChanged { node, from, to } => {
                uint(b, ",\"node\":", node.into());
                uint(b, ",\"from\":", from);
                uint(b, ",\"to\":", to);
            }
            ProbeEvent::BlockEnter { block, tag } | ProbeEvent::BlockExit { block, tag } => {
                uint(b, ",\"block\":", block.into());
                uint(b, ",\"tag\":", tag);
            }
            ProbeEvent::StallBegin { node, tag, reason } => {
                node_tag(b, node, tag);
                b.push_str(",\"reason\":\"");
                b.push_str(reason.label());
                b.push('"');
            }
            ProbeEvent::StallEnd { node, tag } => node_tag(b, node, tag),
            ProbeEvent::FaultInjected { node, kind } => {
                uint(b, ",\"node\":", node.into());
                b.push_str(",\"fault\":\"");
                b.push_str(kind.label());
                b.push('"');
            }
            ProbeEvent::MemAccess { node, addr, write } => mem(b, node, addr, ",\"w\":", write),
            ProbeEvent::MemMiss { node, addr, l2 } => mem(b, node, addr, ",\"l2\":", l2),
        }
        b.push('}');
        self.write_line();
    }
}

/// What [`validate`] found in a well-formed document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamSummary {
    /// Event records (lines with a `"c"` field) — equals the event count a
    /// `CountingProbe` sees on the same run.
    pub events: u64,
    /// Declaration records.
    pub decls: u64,
    /// Event counts per taxonomy kind name.
    pub kinds: HashMap<String, u64>,
}

/// The members [`validate`] looks at, with the type it wants of each.
const KEYS: [(&str, Kind); 19] = [
    ("id", Kind::Num),
    ("block", Kind::Num),
    ("c", Kind::Num),
    ("node", Kind::Num),
    ("n", Kind::Num),
    ("space", Kind::Num),
    ("tag", Kind::Num),
    ("from", Kind::Num),
    ("to", Kind::Num),
    ("addr", Kind::Num),
    ("w", Kind::Num),
    ("l2", Kind::Num),
    ("schema", Kind::Str),
    ("decl", Kind::Str),
    ("name", Kind::Str),
    ("label", Kind::Str),
    ("k", Kind::Str),
    ("reason", Kind::Str),
    ("fault", Kind::Str),
];

/// What one pass over a line keeps: which of [`KEYS`] have the wanted type,
/// and the text of those that are strings. As with
/// [`crate::json::Json::get`], the first occurrence of a key decides; the
/// buffers are reused from line to line.
#[derive(Default)]
struct Record {
    /// Bit `i`: `KEYS[i]` occurred.
    seen: u32,
    /// Bit `i`: its first occurrence had the wanted type.
    typed: u32,
    text: [String; KEYS.len()],
}

impl Record {
    /// Reads one line; anything but an object leaves every key absent.
    fn read(&mut self, line: &str) -> Result<(), String> {
        self.seen = 0;
        self.typed = 0;
        Parser::document(line, |p| {
            if p.kind()? != Kind::Obj {
                return p.skip();
            }
            p.object(|p, key| {
                let Some(i) = KEYS.iter().position(|(k, _)| *k == key) else {
                    return p.skip();
                };
                let first = self.seen & 1 << i == 0;
                self.seen |= 1 << i;
                if !first || p.kind()? != KEYS[i].1 {
                    return p.skip();
                }
                self.typed |= 1 << i;
                if KEYS[i].1 == Kind::Str {
                    self.text[i].clear();
                    p.string(Some(&mut self.text[i]))
                } else {
                    p.skip()
                }
            })
        })
    }

    /// The index of `key` if its first occurrence had the wanted type.
    fn typed(&self, key: &str) -> Option<usize> {
        let i = KEYS.iter().position(|(k, _)| *k == key).expect("a key of KEYS");
        (self.typed & 1 << i != 0).then_some(i)
    }

    /// Whether `key` is a number.
    fn num(&self, key: &str) -> bool {
        self.typed(key).is_some()
    }

    /// The text of `key` if it is a string.
    fn str(&self, key: &str) -> Option<&str> {
        self.typed(key).map(|i| self.text[i].as_str())
    }
}

/// Validates a `tyr-events/v1` JSONL document line by line: the header's
/// schema tag, every declaration's fields, and every event record's kind
/// and kind-specific payload fields.
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn validate(text: &str) -> Result<StreamSummary, String> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or("empty document")?;
    let mut rec = Record::default();
    rec.read(header).map_err(|e| format!("line 1: {e}"))?;
    if rec.str("schema") != Some(SCHEMA) {
        return Err(format!("line 1: missing or wrong \"schema\" (want {SCHEMA:?})"));
    }

    let mut summary = StreamSummary { events: 0, decls: 0, kinds: HashMap::new() };
    for (i, line) in lines {
        let n = i + 1;
        if line.is_empty() {
            continue;
        }
        rec.read(line).map_err(|e| format!("line {n}: {e}"))?;
        let num = |key: &str| {
            if rec.num(key) {
                Ok(())
            } else {
                Err(format!("line {n}: missing numeric \"{key}\""))
            }
        };
        if let Some(decl) = rec.str("decl") {
            match decl {
                "block" => {
                    num("id")?;
                    rec.str("name").ok_or_else(|| format!("line {n}: block decl has no name"))?;
                }
                "node" => {
                    num("id")?;
                    num("block")?;
                    rec.str("label").ok_or_else(|| format!("line {n}: node decl has no label"))?;
                }
                other => return Err(format!("line {n}: unknown decl {other:?}")),
            }
            summary.decls += 1;
            continue;
        }
        num("c")?;
        let kind = rec.str("k").ok_or_else(|| format!("line {n}: event record has no \"k\""))?;
        let required: &[&str] = match kind {
            "fired" | "produced" => &["node"],
            "consumed" => &["node", "n"],
            "tag-allocated" | "tag-freed" => &["space", "tag"],
            "tag-changed" => &["node", "from", "to"],
            "block-enter" | "block-exit" => &["block", "tag"],
            "stall-begin" => {
                let reason = rec
                    .str("reason")
                    .ok_or_else(|| format!("line {n}: stall-begin has no reason"))?;
                if !StallReason::ALL.iter().any(|r| r.label() == reason) {
                    return Err(format!("line {n}: unknown stall reason {reason:?}"));
                }
                &["node", "tag"]
            }
            "stall-end" => &["node", "tag"],
            "fault-injected" => {
                let fault = rec
                    .str("fault")
                    .ok_or_else(|| format!("line {n}: fault-injected has no fault"))?;
                if !FaultKind::ALL.iter().any(|k| k.label() == fault) {
                    return Err(format!("line {n}: unknown fault class {fault:?}"));
                }
                &["node"]
            }
            "mem-access" => &["node", "addr", "w"],
            "mem-miss" => &["node", "addr", "l2"],
            other => return Err(format!("line {n}: unknown event kind {other:?}")),
        };
        for key in required {
            num(key)?;
        }
        summary.events += 1;
        match summary.kinds.get_mut(kind) {
            Some(count) => *count += 1,
            None => {
                summary.kinds.insert(kind.to_string(), 1);
            }
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn sample() -> String {
        let mut s = StreamProbe::new(Vec::new());
        s.declare_block(0, "main");
        s.declare_block(1, "loop \"inner\"");
        s.declare_node(0, "load a", 0);
        s.declare_node(1, "mul", 1);
        s.event(0, ProbeEvent::NodeFired { node: 0 });
        s.event(1, ProbeEvent::TokenProduced { node: 1 });
        s.event(2, ProbeEvent::TokenConsumed { node: 1, count: 2 });
        s.event(2, ProbeEvent::TagAllocated { space: 1, tag: 3 });
        s.event(3, ProbeEvent::BlockEnter { block: 1, tag: 3 });
        s.event(4, ProbeEvent::StallBegin { node: 1, tag: 3, reason: StallReason::TagStarved });
        s.event(5, ProbeEvent::StallEnd { node: 1, tag: 3 });
        s.event(6, ProbeEvent::TagChanged { node: 1, from: 3, to: 0 });
        s.event(7, ProbeEvent::TagFreed { space: 1, tag: 3 });
        s.event(7, ProbeEvent::BlockExit { block: 1, tag: 3 });
        s.event(8, ProbeEvent::FaultInjected { node: 1, kind: FaultKind::MemDelay });
        s.event(9, ProbeEvent::MemAccess { node: 0, addr: -8, write: true });
        s.event(9, ProbeEvent::MemMiss { node: 0, addr: -8, l2: true });
        assert_eq!(s.events(), 13);
        String::from_utf8(s.finish().unwrap()).unwrap()
    }

    #[test]
    fn full_taxonomy_round_trips_and_validates() {
        let text = sample();
        let summary = validate(&text).expect("sample validates");
        assert_eq!(summary.events, 13);
        assert_eq!(summary.decls, 4);
        for kind in EventKind::ALL {
            assert_eq!(
                summary.kinds.get(kind.name()).copied(),
                Some(1),
                "kind {} missing",
                kind.name()
            );
        }
        // Every line is independently valid JSON.
        for line in text.lines() {
            Json::parse(line).expect("each line parses");
        }
    }

    /// The validator as it was before it streamed: a tree per line, then
    /// key lookups. The reference [`validate`] must agree with.
    fn validate_tree(text: &str) -> Result<StreamSummary, String> {
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or("empty document")?;
        let header = Json::parse(header).map_err(|e| format!("line 1: {e}"))?;
        if header.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("line 1: missing or wrong \"schema\" (want {SCHEMA:?})"));
        }
        let mut summary = StreamSummary { events: 0, decls: 0, kinds: HashMap::new() };
        for (i, line) in lines {
            let n = i + 1;
            if line.is_empty() {
                continue;
            }
            let rec = Json::parse(line).map_err(|e| format!("line {n}: {e}"))?;
            let num = |key: &str| {
                rec.get(key)
                    .and_then(Json::as_f64)
                    .map(|_| ())
                    .ok_or_else(|| format!("line {n}: missing numeric \"{key}\""))
            };
            let text = |key: &str, what: &str| {
                rec.get(key).and_then(Json::as_str).ok_or_else(|| format!("line {n}: {what}"))
            };
            if let Some(decl) = rec.get("decl").and_then(Json::as_str) {
                match decl {
                    "block" => {
                        num("id")?;
                        text("name", "block decl has no name")?;
                    }
                    "node" => {
                        num("id")?;
                        num("block")?;
                        text("label", "node decl has no label")?;
                    }
                    other => return Err(format!("line {n}: unknown decl {other:?}")),
                }
                summary.decls += 1;
                continue;
            }
            num("c")?;
            let kind = text("k", "event record has no \"k\"")?;
            let required: &[&str] = match kind {
                "fired" | "produced" => &["node"],
                "consumed" => &["node", "n"],
                "tag-allocated" | "tag-freed" => &["space", "tag"],
                "tag-changed" => &["node", "from", "to"],
                "block-enter" | "block-exit" => &["block", "tag"],
                "stall-begin" => {
                    let reason = text("reason", "stall-begin has no reason")?;
                    if !StallReason::ALL.iter().any(|r| r.label() == reason) {
                        return Err(format!("line {n}: unknown stall reason {reason:?}"));
                    }
                    &["node", "tag"]
                }
                "stall-end" => &["node", "tag"],
                "fault-injected" => {
                    let fault = text("fault", "fault-injected has no fault")?;
                    if !FaultKind::ALL.iter().any(|k| k.label() == fault) {
                        return Err(format!("line {n}: unknown fault class {fault:?}"));
                    }
                    &["node"]
                }
                "mem-access" => &["node", "addr", "w"],
                "mem-miss" => &["node", "addr", "l2"],
                other => return Err(format!("line {n}: unknown event kind {other:?}")),
            };
            for key in required {
                num(key)?;
            }
            summary.events += 1;
            *summary.kinds.entry(kind.to_string()).or_insert(0) += 1;
        }
        Ok(summary)
    }

    #[test]
    fn streaming_validator_agrees_with_the_tree_reference() {
        let good = sample();
        let lines: Vec<&str> = good.lines().collect();
        // The sample with line `i` replaced.
        let with_line = |i: usize, line: String| {
            let mut lines: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
            lines[i] = line;
            lines.join("\n")
        };
        let mut corpus = vec![good.clone(), String::new(), lines[0].to_string()];
        for (i, line) in lines.iter().enumerate() {
            let rec = Json::parse(line).unwrap();
            let pairs = rec.as_obj().unwrap();
            for (at, (key, v)) in pairs.iter().enumerate() {
                let wrong = match v {
                    Json::Str(_) => Json::Num(7.0),
                    _ => Json::Str("7".into()),
                };
                let mut removed = pairs.to_vec();
                removed.remove(at);
                let mut mistyped = pairs.to_vec();
                mistyped[at].1 = wrong.clone();
                let mut unknown = pairs.to_vec();
                unknown[at].1 = json::str("warped");
                // Duplicated with the wrong type second (ignored), then first.
                let mut twice = pairs.to_vec();
                twice.push((key.clone(), wrong));
                let mut twice_first = twice.clone();
                twice_first.rotate_right(1);
                for pairs in [removed, mistyped, unknown, twice, twice_first] {
                    corpus.push(with_line(i, Json::Obj(pairs).render()));
                }
            }
            for other in ["3", "[1]", "{}", "{\"c\":", "{\"c\":01}", ""] {
                corpus.push(with_line(i, other.to_string()));
            }
        }
        let mut errors = std::collections::HashSet::new();
        for text in &corpus {
            let got = validate(text);
            assert_eq!(got, validate_tree(text), "verdicts differ on:\n{text}");
            if let Err(e) = got {
                // Messages name the line; the corpus is compared on the rest.
                errors.insert(e.split_once(": ").unwrap_or(("", &e)).1.to_string());
            }
        }
        for needle in [
            "empty document",
            "\"schema\"",
            "missing numeric \"c\"",
            "missing numeric \"l2\"",
            "block decl has no name",
            "node decl has no label",
            "unknown decl",
            "has no \"k\"",
            "unknown event kind",
            "has no reason",
            "unknown stall reason",
            "has no fault",
            "unknown fault class",
            "at byte",
        ] {
            assert!(errors.iter().any(|e| e.contains(needle)), "no document yields {needle:?}");
        }
    }

    #[test]
    fn labels_are_escaped() {
        let text = sample();
        assert!(text.contains(r#""name":"loop \"inner\"""#), "{text}");
    }

    #[test]
    fn wrong_schema_rejected() {
        let mut text = sample();
        text = text.replacen(SCHEMA, "tyr-events/v0", 1);
        assert!(validate(&text).unwrap_err().contains("schema"));
    }

    #[test]
    fn missing_payload_field_rejected() {
        let text = format!(
            "{}\n{{\"c\":4,\"k\":\"consumed\",\"node\":1}}\n",
            sample().lines().next().unwrap()
        );
        assert!(validate(&text).unwrap_err().contains("\"n\""));
    }

    #[test]
    fn unknown_kind_rejected() {
        let text = format!("{}\n{{\"c\":4,\"k\":\"warped\"}}\n", sample().lines().next().unwrap());
        assert!(validate(&text).unwrap_err().contains("unknown event kind"));
    }

    #[test]
    fn write_errors_are_latched_and_surfaced() {
        use std::io;
        #[derive(Debug)]
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk on fire"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut s = StreamProbe::new(Broken);
        s.event(0, ProbeEvent::NodeFired { node: 0 });
        let err = s.finish().unwrap_err();
        assert!(err.contains("disk on fire"), "{err}");
    }
}
