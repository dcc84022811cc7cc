//! `bounds`: the static, flow and exact bound ladder — `analyze_spec`
//! and `verify_spec` (automatic horizon) — on every cell of both specs.
//! Nothing is simulated or stored.

use super::{measured_loop, Config};
use crate::inputs::Inputs;
use crate::report::Report;
use crate::stats::fastest;
use crate::trace::Tracer;
use rrb::spec::ExperimentSpec;
use rrb::statics::VerifyOptions;
use std::time::Instant;

/// What one pass over both specs produced.
#[derive(Debug, Default)]
struct BoundsPass {
    /// Rendered analyze rows and verified cells, for the repeat check.
    rendered: Vec<String>,
    cells: u64,
    explored: u64,
    pruned: u64,
    analyze_s: f64,
    problems: Vec<String>,
    unsound: u64,
}

fn pass(inputs: &Inputs, tracer: &mut Tracer) -> BoundsPass {
    let mut out = BoundsPass::default();
    for text in inputs.specs() {
        let spec = match tracer.span("spec.parse", || ExperimentSpec::parse(text)) {
            Ok(spec) => spec,
            Err(e) => {
                out.problems.push(format!("spec does not parse: {e}"));
                out.unsound += 1;
                continue;
            }
        };
        let start = Instant::now();
        let rows = tracer.span("static.analyze", || rrb::analyze_spec(&spec));
        out.analyze_s += start.elapsed().as_secs_f64();
        let cells = tracer
            .span("static.verify", || rrb::verify::verify_spec(&spec, &VerifyOptions::default()));
        for row in &rows {
            if let Some(v) = row.violation() {
                out.problems.push(format!("{}: {v}", row.cell));
            }
            out.rendered.push(row.to_json().render_compact());
        }
        for cell in &cells {
            let violations = cell.violations();
            if !violations.is_empty() {
                out.unsound += 1;
                out.problems.extend(violations);
            }
            out.cells += 1;
            out.explored += cell.explored();
            out.pruned += cell.pruned();
            out.rendered.push(cell.to_json().render_compact());
        }
    }
    out
}

/// Runs the workload.
pub fn run(cfg: &Config, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    let mut passes = Vec::new();
    let mut analyze = Vec::new();
    let mut cells = 0;
    let run = measured_loop(
        cfg,
        tracer,
        &mut report,
        |_, _| {
            let inputs = Inputs::generate(cfg.seed);
            let warm = pass(&inputs, &mut Tracer::new(false));
            (inputs, warm.rendered)
        },
        |(inputs, reference), tracer, report| {
            let traced = tracer.enabled();
            let start = Instant::now();
            let out = pass(inputs, tracer);
            let t = start.elapsed().as_secs_f64();
            cells = out.cells;
            let mut problems = out.problems;
            if out.rendered != *reference {
                problems.push(String::from("bounds differ from the set-up pass"));
            }
            report.pass(out.cells, out.unsound, problems);
            if traced {
                report.layers.insert("static.cells", out.cells as f64);
                report.layers.insert("static.explored", out.explored as f64);
                report.layers.insert("static.pruned", out.pruned as f64);
            } else {
                passes.push(t);
                analyze.push(out.analyze_s);
            }
            t
        },
    );
    report.layers.insert("trace.overhead", run.overhead);
    let cells = cells as f64;
    let (pass, analyze) = (fastest(&passes), fastest(&analyze));
    report.end_to_end(run.setup_s, cells / pass, cells / analyze, pass);
    report.named("cells_per_s", cells / pass, "1/s");
    report.named("analyze_cells_per_s", cells / analyze, "1/s");
    report.latency_summary("pass", &passes);
    report
}
