//! The benchmark's own accounting rules: span self time, the tail
//! percentile rule and `failed_share`.
//!
//! ```sh
//! cargo test --manifest-path perfbench/Cargo.toml
//! ```

use rrb_perfbench::stats::{fastest, median, percentile, tail, tail_percentile, Tally};
use rrb_perfbench::trace::{self_seconds_per_trace, self_time_ns, self_times_ns, Span, Tracer};

fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
    Span { name: "x", trace: 1, id, parent, start_ns, end_ns }
}

#[test]
fn self_time_without_children_is_the_duration() {
    assert_eq!(self_time_ns(&span(0, None, 10, 110), &[]), 100);
}

#[test]
fn self_time_subtracts_sibling_children() {
    let parent = span(0, None, 0, 100);
    let a = span(1, Some(0), 10, 30);
    let b = span(2, Some(0), 50, 60);
    assert_eq!(self_time_ns(&parent, &[&a, &b]), 70);
}

#[test]
fn self_time_counts_overlapping_children_once() {
    // Two children on parallel threads covering 20..70 between them.
    let parent = span(0, None, 0, 100);
    let a = span(1, Some(0), 20, 50);
    let b = span(2, Some(0), 40, 70);
    assert_eq!(self_time_ns(&parent, &[&b, &a]), 50);
    // A child contained in another adds nothing.
    let c = span(3, Some(0), 25, 35);
    assert_eq!(self_time_ns(&parent, &[&a, &b, &c]), 50);
}

#[test]
fn self_time_clips_children_to_the_parent() {
    let parent = span(0, None, 100, 200);
    let early = span(1, Some(0), 50, 120);
    let late = span(2, Some(0), 190, 260);
    assert_eq!(self_time_ns(&parent, &[&early, &late]), 70);
}

#[test]
fn nested_spans_charge_each_level_only_its_own_time() {
    // root 0..100 > mid 10..90 > leaf 20..50
    let spans = vec![span(0, None, 0, 100), span(1, Some(0), 10, 90), span(2, Some(1), 20, 50)];
    assert_eq!(self_times_ns(&spans), vec![20, 50, 30]);
}

#[test]
fn self_seconds_sum_per_trace() {
    let mut spans = vec![span(0, None, 0, 1_000), span(1, None, 2_000, 4_000)];
    spans[1].trace = 2;
    spans.push(Span { name: "x", trace: 2, id: 2, parent: None, start_ns: 5_000, end_ns: 6_000 });
    let per_trace = self_seconds_per_trace(&spans, "x");
    assert_eq!(per_trace.len(), 2);
    assert!((per_trace[&1] - 1e-6).abs() < 1e-15);
    assert!((per_trace[&2] - 3e-6).abs() < 1e-15);
}

#[test]
fn tracer_records_parents_and_nothing_when_disabled() {
    let mut tracer = Tracer::new(false);
    tracer.span("off", || ());
    assert!(tracer.spans().is_empty());
    tracer.set_enabled(true);
    let trace = tracer.next_trace();
    let outer = tracer.enter("outer");
    tracer.span("inner", || ());
    tracer.exit(outer);
    let spans = tracer.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[1].parent, Some(spans[0].id));
    assert!(spans.iter().all(|s| s.trace == trace && s.start_ns <= s.end_ns));
    assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    assert_eq!(tracer.to_jsonl().lines().count(), 2);
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    assert_eq!(tail_percentile(1000), Some(99));
    assert_eq!(tail_percentile(999), Some(95));
    assert_eq!(tail_percentile(200), Some(95));
    assert_eq!(tail_percentile(199), Some(90));
    assert_eq!(tail_percentile(100), Some(90));
    assert_eq!(tail_percentile(50), Some(80));
    assert_eq!(tail_percentile(40), Some(75));
    assert_eq!(tail_percentile(39), Some(50));
    assert_eq!(tail_percentile(20), Some(50));
    assert_eq!(tail_percentile(19), None);
    assert_eq!(tail_percentile(0), None);
}

#[test]
fn tail_value_is_the_nearest_rank() {
    let values: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(tail(&values), (99, 990.0));
    let few: Vec<f64> = (1..=5).map(f64::from).collect();
    assert_eq!(tail(&few), (100, 5.0));
    assert_eq!(percentile(&[3.0, 1.0, 2.0], 50), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
}

#[test]
fn failed_share_counts_errors_and_whole_failed_passes() {
    let mut tally = Tally::default();
    assert_eq!(tally.failed_share(), 0.0);
    tally.pass(100, 0, true);
    assert!(tally.all_ok());
    tally.pass(100, 5, true);
    assert_eq!((tally.attempted, tally.failed), (200, 5));
    // A failed output check fails every operation of its pass.
    tally.pass(50, 1, false);
    assert_eq!((tally.attempted, tally.failed, tally.failed_checks), (250, 55, 1));
    assert!((tally.failed_share() - 0.22).abs() < 1e-12);
    assert!(!tally.all_ok());
    // More errors than operations cannot push the share past 1.
    let mut over = Tally::default();
    over.pass(2, 5, true);
    assert_eq!(over.failed_share(), 1.0);
}

#[test]
fn fastest_is_the_smallest_sample() {
    assert_eq!(fastest(&[0.3, 0.1, 0.2]), 0.1);
    assert_eq!(fastest(&[]), 0.0);
}
