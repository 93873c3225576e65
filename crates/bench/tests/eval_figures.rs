//! `lrp-eval all --quick` against its golden output, and the shape
//! properties every regeneration of the figures must keep. The golden
//! pins the bytes; the property checks outlive it when the figures are
//! regenerated on purpose.

use std::process::Command;
use std::sync::OnceLock;

/// The stdout of `lrp-eval all --quick`, run once per test binary.
fn eval_all_quick() -> &'static str {
    static OUT: OnceLock<String> = OnceLock::new();
    OUT.get_or_init(|| {
        let out = Command::new(env!("CARGO_BIN_EXE_lrp-eval"))
            .args(["all", "--quick"])
            .output()
            .expect("lrp-eval runs");
        assert!(
            out.status.success(),
            "lrp-eval all --quick exits 0: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("output is UTF-8")
    })
}

/// The body lines of the section whose `== ... ==` header starts with
/// `title`, up to the blank line that ends it.
fn section(title: &str) -> Vec<&'static str> {
    let text = eval_all_quick();
    let start = text
        .find(&format!("== {title}"))
        .unwrap_or_else(|| panic!("no section {title:?} in:\n{text}"));
    text[start..]
        .lines()
        .skip(1)
        .take_while(|l| !l.is_empty())
        .collect()
}

fn num(field: &str) -> f64 {
    field
        .trim_end_matches('%')
        .parse()
        .unwrap_or_else(|_| panic!("not a number: {field:?}"))
}

/// `(workload, values)` per table row, after the column header.
fn rows(title: &str) -> Vec<(&'static str, Vec<f64>)> {
    section(title)
        .into_iter()
        .skip(1)
        .map(|l| {
            let mut fields = l.split_whitespace();
            let name = fields.next().expect("row has a workload");
            (name, fields.map(num).collect())
        })
        .collect()
}

#[test]
fn eval_all_quick_matches_golden() {
    let golden = include_str!("../../../tests/golden/eval_all_quick.txt");
    let actual = eval_all_quick();
    if let Some((i, (g, a))) = golden
        .lines()
        .zip(actual.lines())
        .enumerate()
        .find(|(_, (g, a))| g != a)
    {
        panic!("line {} differs:\n  golden: {g}\n  actual: {a}", i + 1);
    }
    assert_eq!(actual, golden, "output length differs from the golden");
}

#[test]
fn normalized_times_are_sane() {
    for title in ["Figure 5", "Figure 7"] {
        let rows = rows(title);
        assert_eq!(rows.len(), 5, "{title} has one row per structure");
        for (workload, values) in rows {
            assert_eq!(values.len(), 3, "{title} {workload}: SB, BB, LRP");
            for v in values {
                assert!(v >= 0.95, "{title} {workload}: below NOP ({v})");
                assert!(v < 20.0, "{title} {workload}: absurd ({v})");
            }
        }
    }
}

#[test]
fn fig6_lrp_not_worse_than_bb() {
    let rows = rows("Figure 6");
    assert_eq!(rows.len(), 5);
    for (workload, v) in rows {
        let (bb, lrp) = (v[0], v[1]);
        assert!(lrp <= bb + 25.0, "{workload}: lrp {lrp}% vs bb {bb}%");
    }
}

#[test]
fn fig8_has_every_point() {
    let mut series: Vec<(&str, Vec<u64>)> = Vec::new();
    for line in section("Figure 8") {
        if let Some(name) = line.strip_prefix('(') {
            series.push((name.trim_end_matches(')'), Vec::new()));
        } else if let Some(first) = line.split_whitespace().next() {
            if let Ok(threads) = first.parse() {
                series.last_mut().expect("a series header").1.push(threads);
            }
        }
    }
    let names: Vec<&str> = series.iter().map(|s| s.0).collect();
    assert_eq!(
        names,
        ["linkedlist", "hashmap", "bstree", "skiplist", "queue"]
    );
    for (name, threads) in series {
        assert_eq!(threads, [1, 2, 4], "{name}");
    }
}

#[test]
fn sens_has_every_size() {
    let sizes: Vec<&str> = rows("§6.4").into_iter().map(|r| r.0).collect();
    assert_eq!(sizes, ["16", "48", "128"]);
}

#[test]
fn fig2_bb_conflicts_lrp_coalesces() {
    // "  BB : 1 critical-path flushes, 17434 cycles"
    let counts = |mech: &str| -> (u64, u64) {
        let line = section("Figure 2")
            .into_iter()
            .find(|l| l.trim_start().starts_with(mech))
            .unwrap_or_else(|| panic!("no {mech} line"));
        let nums: Vec<u64> = line
            .split(|c: char| !c.is_ascii_digit())
            .filter_map(|w| w.parse().ok())
            .collect();
        (nums[0], nums[1])
    };
    let (bb_crit, bb_cycles) = counts("BB");
    let (lrp_crit, lrp_cycles) = counts("LRP");
    assert!(bb_crit > 0, "BB must take critical conflict flushes");
    assert_eq!(lrp_crit, 0, "LRP's one-sided barrier removes them");
    assert!(lrp_cycles <= bb_cycles);
}

#[test]
fn claims_follow_from_fig5() {
    // Recompute each claim from the printed Fig. 5 table. Its values are
    // rounded to three decimals, so allow half a percent of rounding on
    // top of the claims' own rounding to whole percents.
    let fig5 = rows("Figure 5");
    let derive = |f: fn(f64, f64, f64) -> f64| -> Vec<f64> {
        fig5.iter().map(|(_, v)| f(v[0], v[1], v[2])).collect()
    };
    let expected = [
        (
            "BB improvement over SB",
            derive(|sb, bb, _| 100.0 * (1.0 - bb / sb)),
        ),
        (
            "LRP improvement over BB",
            derive(|_, bb, lrp| 100.0 * (1.0 - lrp / bb)),
        ),
        (
            "LRP overhead over NOP",
            derive(|_, _, lrp| 100.0 * (lrp - 1.0)),
        ),
    ];
    let claims = section("Headline claims");
    for (label, values) in expected {
        let line = claims
            .iter()
            .find(|l| l.starts_with(label))
            .unwrap_or_else(|| panic!("no claim {label:?}"));
        // "... | measured -18%-22% (avg -0%)"
        let measured = line.split("measured ").nth(1).expect("measured part");
        let (range, avg) = measured.split_once(" (avg ").expect("avg part");
        let split = range[1..].find("%-").expect("lo%-hi%") + 1;
        let (lo, hi) = (num(&range[..split]), num(&range[split + 2..]));
        let avg = num(avg.trim_end_matches(')'));
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        for (what, printed, derived) in [("lo", lo, min), ("hi", hi, max), ("avg", avg, mean)] {
            assert!(
                (printed - derived).abs() <= 1.0,
                "{label} {what}: printed {printed}, Fig. 5 gives {derived:.2}"
            );
        }
    }
}
