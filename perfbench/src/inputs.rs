//! Seeded input generation.
//!
//! The two experiment specs are frozen copies kept with the benchmark,
//! so a change to the repository's example files cannot change what the
//! benchmark measures. The seed rewrites the `seed` field of every
//! seeded kernel in the specs' explicit workload cases (the derive grid
//! has no seeded kernels, so its `ubd` checks hold for every seed) and
//! orders the daemon's point queries. The program only ever sees the
//! generated spec text and the hash list.

use rrb::json::Json;

const NGMP_TEMPLATE: &str = include_str!("../inputs/ngmp_sweep.json");
const ABLATION_TEMPLATE: &str = include_str!("../inputs/ablation_arbiters.json");

/// Largest kernel seed written into a spec.
const MAX_KERNEL_SEED: u64 = 1000;

/// SplitMix64: a small, well-mixed deterministic generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`; `salt` separates independent streams.
    pub fn new(seed: u64, salt: u64) -> Self {
        Rng(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The generated spec texts for one seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The NGMP rsk-nop sweep (3 derive cells, 2 workload cases).
    pub ngmp: String,
    /// The four-arbiter ablation (4 derive cells).
    pub ablation: String,
}

impl Inputs {
    /// Generates both specs for `seed`.
    ///
    /// # Panics
    ///
    /// Panics if a frozen template is not valid JSON, which is a defect
    /// of the benchmark itself.
    pub fn generate(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 1);
        Inputs {
            ngmp: reseed(NGMP_TEMPLATE, &mut rng),
            ablation: reseed(ABLATION_TEMPLATE, &mut rng),
        }
    }

    /// Both spec texts, in the order every workload runs them.
    pub fn specs(&self) -> [&str; 2] {
        [&self.ngmp, &self.ablation]
    }
}

/// Rewrites the `seed` of every kernel in `workloads[*].scua` and
/// `workloads[*].contenders[*]`, in document order.
fn reseed(template: &str, rng: &mut Rng) -> String {
    let mut doc = Json::parse(template).expect("frozen spec template is valid JSON");
    if let Some(Json::Arr(cases)) = field_mut(&mut doc, "workloads") {
        for case in cases {
            if let Some(scua) = field_mut(case, "scua") {
                set_seed(scua, rng);
            }
            if let Some(Json::Arr(contenders)) = field_mut(case, "contenders") {
                for kernel in contenders {
                    set_seed(kernel, rng);
                }
            }
        }
    }
    doc.render_pretty()
}

fn field_mut<'a>(v: &'a mut Json, key: &str) -> Option<&'a mut Json> {
    match v {
        Json::Obj(pairs) => pairs.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn set_seed(kernel: &mut Json, rng: &mut Rng) {
    if let Some(seed) = field_mut(kernel, "seed") {
        *seed = Json::U64(1 + rng.next_u64() % MAX_KERNEL_SEED);
    }
}
