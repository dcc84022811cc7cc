//! Golden classifier corpus: a seeded set of programs whose every
//! `AccessClasses` field is pinned against the checked-in fixture
//! `golden_classes.txt`, one line per program.
//!
//! The corpus mixes loads, stores, nops, ALU ops and branches over a few
//! same-set strides (so DL1 and L2-partition sets fill partially and
//! evict), and covers finite programs shorter and longer than the replay
//! cap, endless programs, LRU / FIFO / random replacement, the toy and
//! two-level NGMP machines, 1-, 2- and 4-way DL1s, and an IL1 small
//! enough for the loop body to overflow it.
//!
//! Regenerate the fixture only for an intended classifier change (and
//! say why in the commit):
//!
//! ```sh
//! cargo test -p rrb-static --test golden_classes -- --ignored
//! ```

use rrb_sim::{CacheConfig, CoreId, Instr, MachineConfig, Program, Replacement};
use rrb_static::{classify_accesses, AccessClasses, LevelClasses, ReplayStats};

const CASES: usize = 200;
/// Chosen among the first few seeds so the corpus also holds programs
/// whose cold prefix spans more than one iteration.
const SEED: u64 = 0x5eed_c1a5_5e50_0003;
const FIXTURE: &str = include_str!("golden_classes.txt");

/// xorshift64*: small, std-only and stable across platforms.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

fn policy(rng: &mut Rng) -> Replacement {
    rng.pick(&[Replacement::Lru, Replacement::Lru, Replacement::Fifo, Replacement::Random])
}

fn policy_name(r: Replacement) -> &'static str {
    match r {
        Replacement::Lru => "lru",
        Replacement::Fifo => "fifo",
        Replacement::Random => "rand",
    }
}

/// One corpus entry: a program, the machine it is classified on, and a
/// label that names both (so a drifted generator shows in the diff).
struct Case {
    label: String,
    program: Program,
    cfg: MachineConfig,
    core: CoreId,
}

fn case(rng: &mut Rng) -> Case {
    let two_level = rng.below(3) == 0;
    let mut cfg = if two_level {
        MachineConfig::ngmp_two_level()
    } else {
        MachineConfig::toy(rng.pick(&[2, 4]), 2)
    };
    cfg.dl1.ways = rng.pick(&[1, 2, 4]);
    cfg.dl1.replacement = policy(rng);
    cfg.l2.replacement = policy(rng);
    let tiny_il1 = rng.below(4) == 0;
    if tiny_il1 {
        cfg.il1 = CacheConfig {
            size_bytes: 256,
            ways: rng.pick(&[1, 2]),
            line_bytes: 32,
            latency: cfg.il1.latency,
            replacement: policy(rng),
        };
    } else if rng.below(6) == 0 {
        cfg.il1.replacement = policy(rng);
    }

    // Addresses: a few base sets, each reached through DL1-set and
    // L2-partition-set strides, so lines collide at both levels.
    let line = cfg.dl1.line_bytes;
    let dl1_stride = cfg.dl1.sets() * line;
    let l2_stride = cfg.l2.partition(cfg.num_cores).sets() * cfg.l2.line_bytes;
    let bases: Vec<u64> =
        (0..1 + rng.below(3)).map(|_| rng.below(64) * line + rng.pick(&[0, 4, 8])).collect();
    let depth = u64::from(cfg.dl1.ways) + 2;
    let with_stores = rng.below(2) == 0;
    let len = if tiny_il1 { 20 + rng.below(100) } else { 1 + rng.below(24) };
    let mut body = Vec::new();
    for _ in 0..len {
        let addr = rng.pick(&bases) + rng.below(depth) * dl1_stride + rng.below(3) * l2_stride;
        body.push(match rng.below(20) {
            0..=6 => Instr::Load(addr),
            7..=8 if with_stores => Instr::Store(addr),
            7..=12 => Instr::Nop,
            13..=16 => Instr::Alu { latency: 1 + rng.below(5) },
            _ => Instr::Branch,
        });
    }
    let iterations = rng.pick(&[
        Some(1),
        Some(3),
        Some(20),
        Some(64),
        Some(65),
        Some(100),
        Some(1000),
        None,
        None,
        None,
    ]);
    let program = match iterations {
        Some(n) => Program::from_body(body, n),
        None => Program::endless(body),
    };
    let core = CoreId::new(rng.below(cfg.num_cores as u64) as usize);

    let label = format!(
        "{} c{} core{} il1 {}B/{}w/{} dl1 {}w/{} l2 {} body {} iters {}",
        if two_level { "ngmp2" } else { "toy" },
        cfg.num_cores,
        core.index(),
        cfg.il1.size_bytes,
        cfg.il1.ways,
        policy_name(cfg.il1.replacement),
        cfg.dl1.ways,
        policy_name(cfg.dl1.replacement),
        policy_name(cfg.l2.replacement),
        program.body().len(),
        iterations.map_or_else(|| String::from("inf"), |n| n.to_string()),
    );
    Case { label, program, cfg, core }
}

fn level(l: &LevelClasses) -> String {
    format!("{}/{}/{}", l.always_hit, l.always_miss, l.unknown)
}

fn stats(s: &ReplayStats) -> String {
    format!("{}/{}", s.hits, s.misses)
}

fn render(c: &AccessClasses) -> String {
    format!(
        "il1 {} dl1 {} l2 {} | steady {}/{} prefix {}/{} gap {} | converged {} replayed {} \
         prefix_iters {} full {} | replay il1 {} dl1 {} l2 {}",
        level(&c.il1),
        level(&c.dl1),
        level(&c.l2),
        c.steady_bus_per_iter,
        c.steady_mc_per_iter,
        c.prefix_bus,
        c.prefix_mc,
        c.min_gap,
        c.converged,
        c.iterations_replayed,
        c.prefix_iterations,
        c.fully_replayed,
        stats(&c.il1_replay),
        stats(&c.dl1_replay),
        stats(&c.l2_replay),
    )
}

/// The corpus rendered as fixture lines.
fn corpus() -> Vec<String> {
    let mut rng = Rng(SEED);
    (0..CASES)
        .map(|i| {
            let c = case(&mut rng);
            let classes = classify_accesses(&c.program, &c.cfg, c.core);
            format!("{i:03} {} => {}", c.label, render(&classes))
        })
        .collect()
}

#[test]
fn classifier_matches_the_golden_corpus_field_for_field() {
    let expected: Vec<&str> = FIXTURE.lines().collect();
    let actual = corpus();
    assert_eq!(actual.len(), expected.len(), "corpus size changed");
    let drifted: Vec<String> = actual
        .iter()
        .zip(&expected)
        .filter(|(a, e)| a != e)
        .map(|(a, e)| format!("expected {e}\n  actual {a}"))
        .collect();
    assert!(
        drifted.is_empty(),
        "{} of {CASES} cases drifted:\n{}",
        drifted.len(),
        drifted.join("\n")
    );
}

#[test]
fn corpus_exercises_every_regime() {
    let lines = corpus();
    let count = |needle: &str| lines.iter().filter(|l| l.contains(needle)).count();
    for needle in [
        "converged true",
        "converged false",
        "full true",
        "iters inf",
        "iters 65",
        "iters 100",
        "/lru",
        "/fifo",
        "/rand",
        "ngmp2",
        "toy",
        "dl1 1w",
        "dl1 2w",
        "dl1 4w",
        "il1 256B",
    ] {
        assert!(count(needle) > 0, "no corpus case has `{needle}`");
    }
    // Some endless programs converge, and some programs only after a cold
    // prefix longer than one iteration.
    assert!(lines.iter().any(|l| l.contains("iters inf") && l.contains("converged true")));
    assert!(lines.iter().any(|l| !l.contains("prefix_iters 0 ") && !l.contains("prefix_iters 1 ")));
}

#[test]
#[ignore = "rewrites the checked-in fixture"]
fn regenerate_fixture() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_classes.txt");
    let mut text = corpus().join("\n");
    text.push('\n');
    std::fs::write(path, text).expect("write fixture");
}
