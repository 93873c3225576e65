//! Plain-text (de)serialization for [`Trace`].
//!
//! A deliberately simple line-oriented format (no external serialization
//! dependencies) used to cache generated traces between the executor and
//! the benchmark harness, and to ship small repro traces in tests.
//!
//! One record per line: `threads`, `heap`, `root NAME ADDR`, `site NAME`
//! (the `OpSite` table, in index order), `init ADDR VAL` (ascending
//! addresses, each at most once), one `e` line per event, then `m`
//! markers. An event line ends with its site index when the trace
//! carries provenance; a file without `site` lines or event site
//! indices decodes with every event's site `unknown`.

use crate::event::{Event, EventKind, OpKind, OpMarker, Trace};
use crate::types::Annot;
use std::fmt::Write as _;

/// Error produced when parsing a serialized trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Description of the problem.
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace parse error at line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

fn kind_char(k: EventKind) -> char {
    match k {
        EventKind::Read => 'R',
        EventKind::Write => 'W',
        EventKind::RmwSuccess => 'C',
        EventKind::RmwFail => 'F',
    }
}

fn annot_char(a: Annot) -> char {
    match a {
        Annot::Plain => 'p',
        Annot::Acquire => 'a',
        Annot::Release => 'r',
        Annot::AcqRel => 'x',
    }
}

/// Serializes a trace to the text format.
pub fn to_text(t: &Trace) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "lrp-trace v1");
    let _ = writeln!(s, "threads {}", t.nthreads);
    let _ = writeln!(s, "heap {} {}", t.heap_range.0, t.heap_range.1);
    for (name, a) in &t.roots {
        let _ = writeln!(s, "root {name} {a}");
    }
    for name in &t.site_names {
        let _ = writeln!(s, "site {name}");
    }
    for (a, v) in &t.initial_mem {
        let _ = writeln!(s, "init {a} {v}");
    }
    for e in &t.events {
        let rf = e.rf.map(|x| x.to_string()).unwrap_or_else(|| "-".into());
        let _ = write!(
            s,
            "e {} {} {} {} {} {} {}",
            e.tid,
            kind_char(e.kind),
            annot_char(e.annot),
            e.addr,
            e.rval,
            e.wval,
            rf
        );
        match t.event_sites.get(e.id as usize) {
            Some(site) => {
                let _ = writeln!(s, " {site}");
            }
            None => s.push('\n'),
        }
    }
    for m in &t.markers {
        let op = match m.op {
            OpKind::Insert(k, v) => format!("I {k} {v}"),
            OpKind::Delete(k) => format!("D {k}"),
            OpKind::Contains(k) => format!("Q {k}"),
            OpKind::Enqueue(v) => format!("E {v}"),
            OpKind::Dequeue => "X".into(),
            OpKind::Setup => "S".into(),
        };
        let _ = writeln!(
            s,
            "m {} {} {} {} {}",
            m.tid, op, m.first_event, m.end_event, m.result
        );
    }
    s
}

fn err(line: usize, msg: impl Into<String>) -> ParseError {
    ParseError {
        line,
        msg: msg.into(),
    }
}

fn num(f: &mut std::str::SplitWhitespace<'_>, ln: usize, what: &str) -> Result<u64, ParseError> {
    f.next()
        .ok_or_else(|| err(ln, format!("missing {what}")))?
        .parse::<u64>()
        .map_err(|_| err(ln, format!("bad {what}")))
}

/// Parses a trace from the text format produced by [`to_text`]. Rejects
/// an `init` line whose address is not above the previous one's, an
/// event site index outside the `site` table, and a file where only
/// some events carry a site index.
pub fn from_text(input: &str) -> Result<Trace, ParseError> {
    let mut lines = input.lines().enumerate();
    let (ln, header) = lines.next().ok_or_else(|| err(1, "empty input"))?;
    if header.trim() != "lrp-trace v1" {
        return Err(err(ln + 1, "bad header"));
    }
    let mut t = Trace::new(0);
    for (i, raw) in lines {
        let ln = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut f = line.split_whitespace();
        let tag = f.next().unwrap();
        match tag {
            "threads" => t.nthreads = num(&mut f, ln, "thread count")? as u16,
            "heap" => t.heap_range = (num(&mut f, ln, "heap lo")?, num(&mut f, ln, "heap hi")?),
            "root" => {
                let name = f
                    .next()
                    .ok_or_else(|| err(ln, "missing root name"))?
                    .to_string();
                let a = f
                    .next()
                    .ok_or_else(|| err(ln, "missing root addr"))?
                    .parse()
                    .map_err(|_| err(ln, "bad root addr"))?;
                t.roots.push((name, a));
            }
            "site" => {
                // The rest of the line: a label may hold spaces.
                let name = line
                    .split_once(char::is_whitespace)
                    .map(|(_, rest)| rest.trim())
                    .ok_or_else(|| err(ln, "missing site name"))?;
                if t.site_names.len() > u16::MAX as usize {
                    return Err(err(ln, "more than 65536 sites"));
                }
                t.site_names.push(name.to_string());
            }
            "init" => {
                let a = num(&mut f, ln, "init addr")?;
                let v = num(&mut f, ln, "init val")?;
                if t.initial_mem.last().is_some_and(|&(last, _)| a <= last) {
                    return Err(err(ln, "init address out of order or duplicated"));
                }
                t.initial_mem.push((a, v));
            }
            "e" => {
                let tid = num(&mut f, ln, "tid")? as u16;
                let kind = match f.next() {
                    Some("R") => EventKind::Read,
                    Some("W") => EventKind::Write,
                    Some("C") => EventKind::RmwSuccess,
                    Some("F") => EventKind::RmwFail,
                    _ => return Err(err(ln, "bad event kind")),
                };
                let annot = match f.next() {
                    Some("p") => Annot::Plain,
                    Some("a") => Annot::Acquire,
                    Some("r") => Annot::Release,
                    Some("x") => Annot::AcqRel,
                    _ => return Err(err(ln, "bad annotation")),
                };
                let addr = num(&mut f, ln, "addr")?;
                let rval = num(&mut f, ln, "rval")?;
                let wval = num(&mut f, ln, "wval")?;
                let rf = match f.next() {
                    Some("-") => None,
                    Some(x) => Some(x.parse().map_err(|_| err(ln, "bad rf"))?),
                    None => return Err(err(ln, "missing rf")),
                };
                match f.next() {
                    Some(x) => {
                        let site: u16 = x.parse().map_err(|_| err(ln, "bad site index"))?;
                        if site as usize >= t.site_names.len() {
                            return Err(err(ln, "site index outside the site table"));
                        }
                        if t.event_sites.len() != t.events.len() {
                            return Err(err(ln, "site index after events without one"));
                        }
                        t.event_sites.push(site);
                    }
                    None if !t.event_sites.is_empty() => {
                        return Err(err(ln, "missing site index"));
                    }
                    None => {}
                }
                t.events.push(Event {
                    id: t.events.len() as u32,
                    tid,
                    kind,
                    annot,
                    addr,
                    rval,
                    wval,
                    rf,
                });
            }
            "m" => {
                let tid = num(&mut f, ln, "tid")? as u16;
                let op = match f.next() {
                    Some("I") => OpKind::Insert(num(&mut f, ln, "key")?, num(&mut f, ln, "val")?),
                    Some("D") => OpKind::Delete(num(&mut f, ln, "key")?),
                    Some("Q") => OpKind::Contains(num(&mut f, ln, "key")?),
                    Some("E") => OpKind::Enqueue(num(&mut f, ln, "val")?),
                    Some("X") => OpKind::Dequeue,
                    Some("S") => OpKind::Setup,
                    _ => return Err(err(ln, "bad op kind")),
                };
                t.markers.push(OpMarker {
                    tid,
                    op,
                    first_event: num(&mut f, ln, "first")? as u32,
                    end_event: num(&mut f, ln, "end")? as u32,
                    result: num(&mut f, ln, "result")?,
                });
            }
            _ => return Err(err(ln, format!("unknown tag {tag}"))),
        }
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::litmus::LitmusBuilder;

    fn sample() -> Trace {
        let mut b = LitmusBuilder::new(2);
        b.init(0x200, 0);
        b.write(0, 0x100, 42);
        b.cas(0, 0x200, 0, 0x100, Annot::AcqRel);
        b.cas(1, 0x200, 0x100, 0x300, Annot::AcqRel);
        b.read_acq(1, 0x200);
        let mut t = b.build();
        t.roots.push(("head".into(), 0x200));
        t.heap_range = (0x100, 0x400);
        t.markers.push(OpMarker {
            tid: 0,
            op: OpKind::Insert(1, 2),
            first_event: 0,
            end_event: 2,
            result: 1,
        });
        t.markers.push(OpMarker {
            tid: 1,
            op: OpKind::Dequeue,
            first_event: 2,
            end_event: 4,
            result: 0,
        });
        t
    }

    fn labeled() -> Trace {
        let mut t = sample();
        t.site_names = vec!["unknown".into(), "queue/enqueue".into(), "q/deq two".into()];
        t.event_sites = vec![1, 1, 2, 0];
        t
    }

    #[test]
    fn round_trip_preserves_everything() {
        for t in [sample(), labeled()] {
            let s = to_text(&t);
            let u = from_text(&s).unwrap();
            assert_eq!(t.nthreads, u.nthreads);
            assert_eq!(t.events, u.events);
            assert_eq!(t.initial_mem, u.initial_mem);
            assert_eq!(t.markers, u.markers);
            assert_eq!(t.roots, u.roots);
            assert_eq!(t.heap_range, u.heap_range);
            assert_eq!(t.site_names, u.site_names);
            assert_eq!(t.event_sites, u.event_sites);
            assert_eq!(to_text(&u), s);
            u.validate().unwrap();
        }
    }

    #[test]
    fn files_without_sites_decode_as_unknown() {
        let s = to_text(&sample());
        assert!(!s.contains("site"), "{s}");
        let u = from_text(&s).unwrap();
        assert!(u.site_names.is_empty() && u.event_sites.is_empty());
        assert_eq!(u.site_name_of(0), "unknown");
    }

    #[test]
    fn rejects_bad_site_indices() {
        let s = to_text(&labeled());
        let lines: Vec<&str> = s.lines().collect();
        let edit = |at: usize, line: String| {
            let mut v: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
            v[at] = line;
            v.join("\n")
        };
        let strip = |l: &str| l.rsplit_once(' ').unwrap().0.to_string();
        // An index outside the table.
        let first = lines.iter().position(|l| l.starts_with("e ")).unwrap();
        let e = from_text(&edit(first, format!("{} 3", strip(lines[first])))).unwrap_err();
        assert_eq!(e.line, first + 1);
        // One event without an index among events with one.
        let last = lines.iter().rposition(|l| l.starts_with("e ")).unwrap();
        let e = from_text(&edit(last, strip(lines[last]))).unwrap_err();
        assert_eq!(e.line, last + 1);
        // The first event without one, a later event with one.
        let e = from_text(&edit(first, strip(lines[first]))).unwrap_err();
        assert_eq!(e.line, first + 2);
    }

    #[test]
    fn rejects_unsorted_or_duplicated_init_lines() {
        let ok = "lrp-trace v1\nthreads 1\ninit 8 1\ninit 16 2\n";
        assert_eq!(from_text(ok).unwrap().initial_mem, vec![(8, 1), (16, 2)]);
        for bad in [
            "lrp-trace v1\nthreads 1\ninit 16 2\ninit 8 1\n",
            "lrp-trace v1\nthreads 1\ninit 8 1\ninit 8 2\n",
        ] {
            assert_eq!(from_text(bad).unwrap_err().line, 4, "{bad}");
        }
    }

    #[test]
    fn rejects_bad_header() {
        assert!(from_text("nope").is_err());
        assert!(from_text("").is_err());
    }

    #[test]
    fn rejects_malformed_event() {
        let bad = "lrp-trace v1\nthreads 1\ne 0 Z p 1 0 0 -\n";
        let e = from_text(bad).unwrap_err();
        assert_eq!(e.line, 3);
    }

    #[test]
    fn skips_comments_and_blanks() {
        let s = "lrp-trace v1\n# comment\n\nthreads 3\n";
        let t = from_text(s).unwrap();
        assert_eq!(t.nthreads, 3);
    }
}
