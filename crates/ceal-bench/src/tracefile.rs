//! Trace-directory analysis behind the `trace` CLI binary.
//!
//! `ceal-trace` writes one JSON event per line (see `ceal-trace::event`);
//! this module reads those files back without any schema machinery and
//! turns them into three artifacts:
//!
//! * [`check_dir`] — parse every line, tally names/kinds, report the
//!   first malformed lines (the CI smoke gate),
//! * [`summarize`] — fold the events of each campaign trace into a
//!   per-phase breakdown ([`CampaignSummary`]),
//! * [`render_summary`] — the fixed-width table the CLI prints.
//!
//! Everything here works on already-loaded [`ParsedEvent`]s so unit tests
//! can feed synthetic streams without touching the filesystem.

use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// One decoded trace event (an owned, schema-checked JSON line).
#[derive(Debug, Clone)]
pub struct ParsedEvent {
    /// Wall-clock microseconds.
    pub ts_us: u64,
    /// `'B'` begin, `'E'` end, `'I'` instant, `'W'` warn.
    pub kind: char,
    /// Event name (`"phase.refining"`, `"oracle.measure"`, ...).
    pub name: String,
    /// Campaign/request trace id; 0 = untraced.
    pub trace: u64,
    /// Span id (0 for loose instants).
    pub span: u64,
    /// Parent span id; 0 = root.
    pub parent: u64,
    /// Span duration; only meaningful when `kind == 'E'`.
    pub dur_us: u64,
    /// The `f` payload, if any.
    pub fields: BTreeMap<String, Value>,
}

impl ParsedEvent {
    /// String field accessor (`None` when absent or not a string).
    fn str_field(&self, key: &str) -> Option<&str> {
        self.fields.get(key).and_then(Value::as_str)
    }

    /// Unsigned field accessor.
    fn u64_field(&self, key: &str) -> Option<u64> {
        self.fields.get(key).and_then(Value::as_u64)
    }
}

/// Decodes one JSON line into a [`ParsedEvent`].
///
/// Rejects lines that parse as JSON but miss the fixed keys — a
/// half-written line at the flusher's crash point must fail loudly, not
/// read as zeros.
fn parse_line(line: &str) -> Result<ParsedEvent, String> {
    let value: Value = serde_json::from_str(line).map_err(|e| format!("bad json: {e:?}"))?;
    let obj = value.as_object().ok_or("not an object")?;
    let ts_us = obj
        .get("ts_us")
        .and_then(Value::as_u64)
        .ok_or("missing ts_us")?;
    let kind = match obj.get("kind").and_then(Value::as_str) {
        Some("B") => 'B',
        Some("E") => 'E',
        Some("I") => 'I',
        Some("W") => 'W',
        Some(other) => return Err(format!("unknown kind {other:?}")),
        None => return Err("missing kind".into()),
    };
    let name = obj
        .get("name")
        .and_then(Value::as_str)
        .ok_or("missing name")?
        .to_string();
    let trace_hex = obj
        .get("trace")
        .and_then(Value::as_str)
        .ok_or("missing trace")?;
    let trace = u64::from_str_radix(trace_hex, 16)
        .map_err(|_| format!("trace {trace_hex:?} is not 16-hex"))?;
    let span = obj
        .get("span")
        .and_then(Value::as_u64)
        .ok_or("missing span")?;
    let parent = obj
        .get("parent")
        .and_then(Value::as_u64)
        .ok_or("missing parent")?;
    let dur_us = obj
        .get("dur_us")
        .and_then(Value::as_u64)
        .ok_or("missing dur_us")?;
    let mut fields = BTreeMap::new();
    if let Some(f) = obj.get("f") {
        let map = f.as_object().ok_or("f is not an object")?;
        for (k, v) in map.iter() {
            fields.insert(k.clone(), v.clone());
        }
    }
    Ok(ParsedEvent {
        ts_us,
        kind,
        name,
        trace,
        span,
        parent,
        dur_us,
        fields,
    })
}

/// Outcome of scanning a trace directory line by line.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// `.jsonl` files visited.
    pub files: usize,
    /// Non-empty lines seen.
    pub lines: usize,
    /// Lines that decoded cleanly.
    pub parsed: Vec<ParsedEvent>,
    /// `(file, line-number, error)` for every rejected line.
    pub bad: Vec<(String, usize, String)>,
    /// Events per name.
    pub names: BTreeMap<String, u64>,
    /// Events per kind letter.
    pub kinds: BTreeMap<char, u64>,
}

impl CheckReport {
    /// Names from `required` that never appeared.
    pub fn missing<'a>(&self, required: &'a [&'a str]) -> Vec<&'a str> {
        required
            .iter()
            .copied()
            .filter(|name| !self.names.contains_key(*name))
            .collect()
    }
}

/// Reads and validates every `*.jsonl` file under `dir`.
pub fn check_dir(dir: &Path) -> Result<CheckReport, String> {
    let mut report = CheckReport::default();
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "jsonl"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no .jsonl files in {}", dir.display()));
    }
    for path in paths {
        report.files += 1;
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let file = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            report.lines += 1;
            match parse_line(line) {
                Ok(ev) => {
                    *report.names.entry(ev.name.clone()).or_insert(0) += 1;
                    *report.kinds.entry(ev.kind).or_insert(0) += 1;
                    report.parsed.push(ev);
                }
                Err(e) => report.bad.push((file.clone(), lineno + 1, e)),
            }
        }
    }
    report.parsed.sort_by_key(|e| e.ts_us);
    Ok(report)
}

/// One duration bucket in a campaign breakdown (a phase, or an event
/// class like worker-side oracle measurements).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseRow {
    /// Row label (`"phase.refining"`, `"oracle.measure (worker)"`, ...).
    pub label: String,
    /// How many End/Instant events folded into the row.
    pub count: u64,
    /// Summed duration in microseconds.
    pub total_us: u64,
}

/// Everything the summarizer knows about one campaign trace.
#[derive(Debug, Clone)]
pub struct CampaignSummary {
    /// The 16-hex trace id.
    pub trace: u64,
    /// Name of the root span (`"session"`, `"campaign.tune"`, ...).
    pub root: String,
    /// Wall-clock from first to last event.
    pub wall_us: u64,
    /// Total events in the trace.
    pub events: u64,
    /// Phase rows in first-seen order, then oracle/journal rows.
    pub rows: Vec<PhaseRow>,
    /// `cache.lookup` tier tallies (`front`/`disk`/`miss`).
    pub cache_tiers: BTreeMap<String, u64>,
    /// Warn events in the trace.
    pub warns: u64,
}

/// Folds a parsed event stream into one summary per campaign trace.
///
/// A trace qualifies as a campaign when it contains at least one
/// `phase.*` or `campaign.*` or `session` event; bare request traces
/// (`request.ping` and friends) are left out so a load test does not
/// drown the table. Summaries come back ordered by first appearance.
pub fn summarize(events: &[ParsedEvent]) -> Vec<CampaignSummary> {
    let mut order: Vec<u64> = Vec::new();
    let mut by_trace: BTreeMap<u64, Vec<&ParsedEvent>> = BTreeMap::new();
    for ev in events {
        if ev.trace == 0 {
            continue;
        }
        if !by_trace.contains_key(&ev.trace) {
            order.push(ev.trace);
        }
        by_trace.entry(ev.trace).or_default().push(ev);
    }
    let mut out = Vec::new();
    for trace in order {
        let evs = &by_trace[&trace];
        let is_campaign = evs.iter().any(|e| {
            e.name.starts_with("phase.") || e.name.starts_with("campaign.") || e.name == "session"
        });
        if !is_campaign {
            continue;
        }
        out.push(summarize_one(trace, evs));
    }
    out
}

fn summarize_one(trace: u64, evs: &[&ParsedEvent]) -> CampaignSummary {
    let first = evs.iter().map(|e| e.ts_us).min().unwrap_or(0);
    let last = evs.iter().map(|e| e.ts_us).max().unwrap_or(0);
    let root = evs
        .iter()
        .find(|e| e.parent == 0 && (e.kind == 'B' || e.kind == 'E') && e.span != 0)
        .map(|e| e.name.clone())
        .unwrap_or_else(|| "?".into());

    // Phase rows keep first-seen order so the table reads as a timeline.
    let mut phase_order: Vec<String> = Vec::new();
    let mut phases: BTreeMap<String, PhaseRow> = BTreeMap::new();
    let mut oracle_local = PhaseRow {
        label: "oracle.measure (local)".into(),
        count: 0,
        total_us: 0,
    };
    let mut oracle_worker = PhaseRow {
        label: "oracle.measure (worker)".into(),
        count: 0,
        total_us: 0,
    };
    let mut journal = PhaseRow {
        label: "journal.commit".into(),
        count: 0,
        total_us: 0,
    };
    let mut scatter = PhaseRow {
        label: "fleet.scatter+gather".into(),
        count: 0,
        total_us: 0,
    };
    let mut journal_records = 0u64;
    let mut cache_tiers: BTreeMap<String, u64> = BTreeMap::new();
    let mut warns = 0u64;

    for ev in evs {
        match (ev.kind, ev.name.as_str()) {
            ('E', name) if name.starts_with("phase.") => {
                if !phases.contains_key(name) {
                    phase_order.push(name.to_string());
                }
                let row = phases.entry(name.to_string()).or_insert_with(|| PhaseRow {
                    label: name.to_string(),
                    count: 0,
                    total_us: 0,
                });
                row.count += 1;
                row.total_us += ev.dur_us;
            }
            ('E', "oracle.measure") => {
                let row = if ev.str_field("source") == Some("worker") {
                    &mut oracle_worker
                } else {
                    &mut oracle_local
                };
                row.count += 1;
                row.total_us += ev.dur_us;
            }
            ('E', "fleet.scatter") | ('E', "fleet.gather") => {
                scatter.count += 1;
                scatter.total_us += ev.dur_us;
            }
            ('I', "journal.commit") => {
                journal.count += 1;
                journal.total_us += ev.u64_field("us").unwrap_or(0);
                journal_records += ev.u64_field("records").unwrap_or(0);
            }
            ('I', "cache.lookup") => {
                let tier = ev.str_field("tier").unwrap_or("?").to_string();
                *cache_tiers.entry(tier).or_insert(0) += 1;
            }
            ('W', _) => warns += 1,
            _ => {}
        }
    }

    let mut rows: Vec<PhaseRow> = phase_order
        .iter()
        .map(|name| phases[name].clone())
        .collect();
    // `count` is commits; records ÷ commits is how well batching works.
    journal.label = format!("journal.commit ({journal_records} records)");
    for row in [oracle_local, oracle_worker, scatter, journal] {
        if row.count > 0 {
            rows.push(row);
        }
    }
    CampaignSummary {
        trace,
        root,
        wall_us: last.saturating_sub(first),
        events: evs.len() as u64,
        rows,
        cache_tiers,
        warns,
    }
}

/// Renders campaign summaries as the fixed-width table the CLI prints.
pub fn render_summary(summaries: &[CampaignSummary]) -> String {
    let mut out = String::new();
    if summaries.is_empty() {
        out.push_str("no campaign traces found\n");
        return out;
    }
    for s in summaries {
        let _ = writeln!(
            out,
            "trace {:016x}  root={}  wall={}  events={}  warns={}",
            s.trace,
            s.root,
            fmt_us(s.wall_us),
            s.events,
            s.warns
        );
        if !s.rows.is_empty() {
            let _ = writeln!(
                out,
                "  {:<28} {:>7} {:>12} {:>7}",
                "phase", "count", "total", "share"
            );
            let denom: u64 = s.rows.iter().map(|r| r.total_us).sum::<u64>().max(1);
            for row in &s.rows {
                let share = 100.0 * row.total_us as f64 / denom as f64;
                let _ = writeln!(
                    out,
                    "  {:<28} {:>7} {:>12} {:>6.1}%",
                    row.label,
                    row.count,
                    fmt_us(row.total_us),
                    share
                );
            }
        }
        if !s.cache_tiers.is_empty() {
            let tiers: Vec<String> = s
                .cache_tiers
                .iter()
                .map(|(tier, n)| format!("{tier}={n}"))
                .collect();
            let _ = writeln!(out, "  cache.lookup: {}", tiers.join(" "));
        }
        out.push('\n');
    }
    out
}

fn fmt_us(us: u64) -> String {
    if us >= 2_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 2_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{us}us")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(
        kind: char,
        name: &str,
        trace: u64,
        dur_us: u64,
        fields: &[(&str, Value)],
    ) -> ParsedEvent {
        ParsedEvent {
            ts_us: 0,
            kind,
            name: name.to_string(),
            trace,
            span: 1,
            parent: 0,
            dur_us,
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        }
    }

    #[test]
    fn parse_line_round_trips_the_writer_layout() {
        let line = "{\"ts_us\":12,\"kind\":\"E\",\"name\":\"oracle.measure\",\
                    \"trace\":\"9f2c51aa03b7e4d1\",\"span\":7,\"parent\":3,\"dur_us\":412,\
                    \"f\":{\"idx\":17,\"source\":\"worker\"}}";
        let ev = parse_line(line).expect("parses");
        assert_eq!(ev.kind, 'E');
        assert_eq!(ev.name, "oracle.measure");
        assert_eq!(ev.trace, 0x9f2c_51aa_03b7_e4d1);
        assert_eq!(ev.span, 7);
        assert_eq!(ev.parent, 3);
        assert_eq!(ev.dur_us, 412);
        assert_eq!(ev.str_field("source"), Some("worker"));
        assert_eq!(ev.u64_field("idx"), Some(17));
    }

    #[test]
    fn parse_line_rejects_truncation_and_missing_keys() {
        assert!(
            parse_line("{\"ts_us\":12,\"kind\":\"E\"").is_err(),
            "truncated"
        );
        assert!(
            parse_line("{\"ts_us\":12,\"kind\":\"E\",\"name\":\"x\"}").is_err(),
            "missing trace"
        );
        assert!(
            parse_line(
                "{\"ts_us\":1,\"kind\":\"Q\",\"name\":\"x\",\"trace\":\"0\",\
                 \"span\":0,\"parent\":0,\"dur_us\":0}"
            )
            .is_err(),
            "unknown kind"
        );
    }

    #[test]
    fn summarize_groups_phases_and_oracle_sources_per_trace() {
        let t = 0xabcd;
        let events = vec![
            ev('B', "session", t, 0, &[]),
            ev('E', "phase.created", t, 10, &[]),
            ev('E', "phase.bootstrapping", t, 200, &[]),
            ev(
                'E',
                "oracle.measure",
                t,
                40,
                &[("source", Value::String("local".into()))],
            ),
            ev(
                'E',
                "oracle.measure",
                t,
                60,
                &[("source", Value::String("worker".into()))],
            ),
            ev(
                'E',
                "oracle.measure",
                t,
                60,
                &[("source", Value::String("worker".into()))],
            ),
            ev(
                'I',
                "journal.commit",
                t,
                0,
                &[("us", Value::from(7u64)), ("records", Value::from(3u64))],
            ),
            ev(
                'I',
                "journal.commit",
                t,
                0,
                &[("us", Value::from(5u64)), ("records", Value::from(2u64))],
            ),
            ev(
                'I',
                "cache.lookup",
                t,
                0,
                &[("tier", Value::String("miss".into()))],
            ),
            ev('W', "cache.persist-failed", t, 0, &[]),
            // A second, request-only trace must not appear in the output.
            ev('B', "request.ping", 0x9999, 0, &[]),
            ev('E', "request.ping", 0x9999, 5, &[]),
        ];
        let summaries = summarize(&events);
        assert_eq!(summaries.len(), 1, "request-only traces are skipped");
        let s = &summaries[0];
        assert_eq!(s.trace, t);
        assert_eq!(s.root, "session");
        assert_eq!(s.warns, 1);
        let labels: Vec<&str> = s.rows.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(
            labels,
            vec![
                "phase.created",
                "phase.bootstrapping",
                "oracle.measure (local)",
                "oracle.measure (worker)",
                "journal.commit (5 records)"
            ]
        );
        let journal = s.rows.last().unwrap();
        assert_eq!((journal.count, journal.total_us), (2, 12));
        let worker = s
            .rows
            .iter()
            .find(|r| r.label.ends_with("(worker)"))
            .unwrap();
        assert_eq!((worker.count, worker.total_us), (2, 120));
        assert_eq!(s.cache_tiers.get("miss"), Some(&1));
        let rendered = render_summary(&summaries);
        assert!(rendered.contains("trace 000000000000abcd"), "{rendered}");
        assert!(rendered.contains("phase.bootstrapping"), "{rendered}");
    }

    #[test]
    fn check_dir_flags_bad_lines_and_counts_names() {
        let dir = ceal_testutil::unique_temp_path("trace-check", "");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("trace-1.jsonl"),
            "{\"ts_us\":1,\"kind\":\"B\",\"name\":\"conn\",\"trace\":\"0000000000000000\",\
             \"span\":1,\"parent\":0,\"dur_us\":0}\n\
             this is not json\n",
        )
        .unwrap();
        let report = check_dir(&dir).expect("dir reads");
        assert_eq!(report.files, 1);
        assert_eq!(report.lines, 2);
        assert_eq!(report.parsed.len(), 1);
        assert_eq!(report.bad.len(), 1);
        assert_eq!(report.names.get("conn"), Some(&1));
        assert_eq!(report.missing(&["conn", "session"]), vec!["session"]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
