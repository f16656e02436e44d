//! The one JSON emitter behind every `BENCH_*.json`: value rendering and
//! the document layout the checked-in goldens depend on.

use bench::{Doc, Json};
use littles::Nanos;

#[test]
fn scalars_render_as_json_literals() {
    assert_eq!(Json::Null.render(), "null");
    assert_eq!(Json::from(true).render(), "true");
    assert_eq!(Json::from(false).render(), "false");
    assert_eq!(Json::from(17usize).render(), "17");
    assert_eq!(Json::from(u64::MAX).render(), "18446744073709551615");
    assert_eq!(Json::opt(None::<u32>, Json::from).render(), "null");
    assert_eq!(Json::opt(Some(905u32), Json::from).render(), "905");
}

#[test]
fn float_forms_match_the_checked_in_bytes() {
    // Display drops a zero fraction, Debug keeps it.
    assert_eq!(Json::float(1.0).render(), "1");
    assert_eq!(Json::float(0.5).render(), "0.5");
    assert_eq!(Json::debug(1.0).render(), "1.0");
    assert_eq!(
        Json::debug(0.34676434676434675).render(),
        "0.34676434676434675"
    );
    assert_eq!(Json::fixed(80_000.0, 0).render(), "80000");
    assert_eq!(Json::fixed(300.0, 1).render(), "300.0");
    assert_eq!(Json::fixed(1.0, 3).render(), "1.000");
    assert_eq!(Json::fixed(2705.3834, 3).render(), "2705.383");
    assert_eq!(Json::us(Some(Nanos::from_nanos(72_340))).render(), "72.3");
    assert_eq!(Json::us(None).render(), "null");
    // NaN and infinities have no JSON spelling.
    assert_eq!(Json::float(f64::NAN), Json::Null);
    assert_eq!(Json::debug(f64::NEG_INFINITY), Json::Null);
    assert_eq!(Json::fixed(f64::INFINITY, 1), Json::Null);
}

#[test]
fn strings_are_escaped() {
    assert_eq!(Json::from("+nagle-delack").render(), "\"+nagle-delack\"");
    assert_eq!(Json::from("a\"b\\c\nd\te").render(), r#""a\"b\\c\nd\te""#);
    assert_eq!(Json::from("\x01").render(), "\"\\u0001\"");
    assert_eq!(
        Json::obj([("k\"", Json::Null)]).render(),
        r#"{"k\"": null}"#
    );
}

#[test]
fn nesting_keeps_insertion_order() {
    let v = Json::obj([
        ("z", Json::arr([1u32.into(), Json::Null, Json::arr([])])),
        ("a", Json::obj([("inner", Json::debug(0.25))])),
        ("empty", Json::obj(Vec::<(String, Json)>::new())),
    ]);
    assert_eq!(
        v.render(),
        r#"{"z": [1, null, []], "a": {"inner": 0.25}, "empty": {}}"#
    );
}

#[test]
fn document_is_one_row_per_line_and_counts_its_rows() {
    let row = |n: u32| Json::obj([("n", n.into())]);
    let doc = Doc {
        version: 1,
        header: vec![("bound_factor", Json::float(3.0))],
        sections: vec![
            ("breaches", 4u32.into()),
            ("cells", Json::arr([row(1), row(2), row(3)])),
            ("cutoffs", Json::arr([row(9)])),
        ],
    };
    assert_eq!(doc.count(), 3);
    let expected = "{\n  \"version\": 1,\n  \"bench\": \"demo\",\n  \"bound_factor\": 3,\n  \
                    \"count\": 3,\n  \"breaches\": 4,\n  \"cells\": [\n    {\"n\": 1},\n    \
                    {\"n\": 2},\n    {\"n\": 3}\n  ],\n  \"cutoffs\": [\n    {\"n\": 9}\n  ]\n}\n";
    assert_eq!(doc.render("demo"), expected);

    // A document with no array section has no rows.
    let empty = Doc {
        version: 2,
        header: vec![],
        sections: vec![],
    };
    assert_eq!(
        empty.render("e"),
        "{\n  \"version\": 2,\n  \"bench\": \"e\",\n  \"count\": 0\n}\n"
    );
}

/// The checked-in goldens are this writer's output: every one opens with
/// `version` and its own `bench` name and has `count` equal to its rows.
#[test]
fn checked_in_goldens_have_the_document_layout() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut seen = 0;
    for file in std::fs::read_dir(dir).expect("read crates/bench").flatten() {
        let name = file.file_name().into_string().unwrap_or_default();
        let Some(bench) = name
            .strip_prefix("BENCH_")
            .and_then(|n| n.strip_suffix(".json"))
        else {
            continue;
        };
        let text = std::fs::read_to_string(file.path()).expect("read golden");
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("{"), "{name}");
        assert!(
            lines
                .next()
                .is_some_and(|l| l.starts_with("  \"version\": ")),
            "{name}"
        );
        assert_eq!(
            lines.next(),
            Some(format!("  \"bench\": \"{bench}\",").as_str()),
            "{name}"
        );
        let count: usize = text
            .lines()
            .find_map(|l| {
                l.strip_prefix("  \"count\": ")?
                    .strip_suffix(',')?
                    .parse()
                    .ok()
            })
            .unwrap_or_else(|| panic!("{name}: no count"));
        // Rows of the first array section: the lines up to its closing bracket.
        let rows = text
            .lines()
            .skip_while(|l| !l.ends_with(": ["))
            .skip(1)
            .take_while(|l| !l.starts_with("  ]"))
            .count();
        assert_eq!(count, rows, "{name}: count != rows");
        seen += 1;
    }
    assert!(seen >= 7, "expected the checked-in goldens, found {seen}");
}
