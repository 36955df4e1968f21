//! The five workloads: populations, endless per-client op streams, and
//! the fingerprint that pins the generated traffic.
//!
//! Every stream is stationary — each create is matched by a delete — so
//! a window of fixed length means the same thing on a fast and on a slow
//! system. Sizes, names and choices come from `cedar_workload`'s own
//! `WorkloadRng`, `SizeDistribution` and `makedo_workload`; nothing here
//! re-implements them.

use cedar_workload::rng::WorkloadRng;
use cedar_workload::{makedo_workload, MakeDoParams, SizeDistribution, Step};
use std::collections::{HashMap, VecDeque};

/// Seed the fingerprints in [`Workload::fingerprint_1987`] were taken at.
pub const DEFAULT_SEED: u64 = 1987;

/// Client threads of the host pass. Two is the fewest that lets an epoch
/// carry more than one write. `run.sh` pins the process to one CPU (see
/// the README: on the two-vCPU sandbox the cost of a wake-up that crosses
/// CPUs swings throughput 2.5× from one minute to the next), so more
/// clients would add queueing, not parallelism, and the count does not
/// follow the core count.
pub const CLIENTS: usize = 2;

/// The file every population ends with and the restart leg reads first:
/// the same small file on every workload and seed, so time to first read
/// measures the restart and not the luck of which file came first.
pub const PROBE: &str = "recovery/probe";
pub const PROBE_BYTES: u64 = 4_000;

/// How far a run is scaled down from the declared sizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sizing {
    /// Populations, op counts and byte sizes are divided by this.
    pub div: usize,
    /// `SimDisk::tiny()` instead of the T-300 (harness tests only).
    pub tiny: bool,
}

impl Sizing {
    pub const FULL: Self = Self {
        div: 1,
        tiny: false,
    };
    pub const SMOKE: Self = Self {
        div: 20,
        tiny: false,
    };
    pub const TINY: Self = Self {
        div: 400,
        tiny: true,
    };
}

/// One generated operation: the step, and what a correct file system
/// must answer (the byte length a `Read` or `Touch` finds).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Op {
    pub step: Step,
    pub expect: u64,
}

impl Op {
    fn new(step: Step) -> Self {
        Self { step, expect: 0 }
    }
}

/// An endless, deterministic op stream for one client.
pub trait Generator: Send {
    fn next_op(&mut self) -> Op;
}

/// The benchmark's workloads. Names are final: later issues quote them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Makedo,
    MailChurn,
    BulkStream,
    ReadMostly,
    CrashBoot,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Makedo,
        Workload::MailChurn,
        Workload::BulkStream,
        Workload::ReadMostly,
        Workload::CrashBoot,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Makedo => "makedo",
            Workload::MailChurn => "mail_churn",
            Workload::BulkStream => "bulk_stream",
            Workload::ReadMostly => "read_mostly",
            Workload::CrashBoot => "crash_boot",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Files created before measurement starts (not counting the MakeDo
    /// packages), at full size.
    fn population_files(self) -> usize {
        match self {
            Workload::Makedo => 4_000,
            Workload::MailChurn | Workload::CrashBoot => 20_000,
            Workload::BulkStream => 0,
            Workload::ReadMostly => 24_000,
        }
    }

    /// Ops the simulated-clock pass replays.
    pub fn sim_ops(self, sizing: Sizing) -> usize {
        let full = match self {
            // Three rounds of each package: 227 steps a round.
            Workload::Makedo => 3 * MAKEDO_PACKAGES as usize * 227,
            Workload::MailChurn => 15_000,
            // About 150 files: a create and a read each, and a delete
            // once the live set is full.
            Workload::BulkStream => 400,
            Workload::ReadMostly => 12_000,
            Workload::CrashBoot => 6_000,
        };
        (full / sizing.div).max(30)
    }

    /// Name-table pages per copy: room for the population (with every
    /// client's MakeDo packages) and its churn.
    pub fn nt_pages(self, sizing: Sizing) -> u32 {
        let packaged = match self {
            Workload::Makedo => CLIENTS * makedo_packages(sizing) as usize * MAKEDO_PACKAGE_FILES,
            _ => 0,
        };
        let files = self.population_files() / sizing.div + packaged;
        (files / 6 + if sizing.tiny { 40 } else { 512 }) as u32
    }

    /// The fingerprint of the seed-1987, full-size traffic, recorded when
    /// the benchmark was defined. A run at that seed and size that
    /// generates anything else fails: an edited generator would move
    /// every number without any change to the system.
    pub fn fingerprint_1987(self) -> u64 {
        match self {
            Workload::Makedo => 24_479_336_791_638,
            Workload::MailChurn => 276_848_914_317_424,
            Workload::BulkStream => 103_154_732_830_564,
            Workload::ReadMostly => 61_201_321_840_206,
            Workload::CrashBoot => 162_206_428_339_787,
        }
    }

    /// The creates that build the volume. It is the same volume whether
    /// one client runs against it (the simulated pass) or [`CLIENTS`] do,
    /// so every set-up of a workload is the same work.
    pub fn population(self, seed: u64, sizing: Sizing) -> Vec<Step> {
        let files = self.population_files() / sizing.div;
        let mut rng = WorkloadRng::new(seed);
        let mut sizes = SizeDistribution::new(seed);
        let mut steps: Vec<Step> = match self {
            Workload::Makedo => (0..files)
                .map(|i| Step::Create {
                    name: format!("vol/p{i:05}"),
                    bytes: sizes.sample(),
                })
                .chain((0..CLIENTS).flat_map(|c| makedo_setup(seed, sizing, c)))
                .collect(),
            Workload::MailChurn | Workload::CrashBoot => {
                let boxes = mailboxes(sizing);
                (0..files)
                    .map(|i| Step::Create {
                        name: mail_name(rng.range(0, boxes), i as u64),
                        bytes: rng.range(200, 3_901),
                    })
                    .collect()
            }
            Workload::BulkStream => Vec::new(),
            Workload::ReadMostly => (0..files)
                .map(|i| Step::Create {
                    name: format!("lib/d{:02}/f{i:06}", i % 97),
                    bytes: sizes.sample().min(16_000),
                })
                .collect(),
        };
        steps.push(Step::Create {
            name: PROBE.into(),
            bytes: PROBE_BYTES,
        });
        steps
    }

    /// Client `client` of `clients`: it owns every `clients`-th file of
    /// the population and a name space of its own for what it creates, so
    /// clients never race on a name and the outcome does not depend on
    /// how their ops interleave.
    pub fn client(
        self,
        seed: u64,
        sizing: Sizing,
        population: &[Step],
        client: usize,
        clients: usize,
    ) -> Box<dyn Generator> {
        let owned = || {
            population
                .iter()
                .enumerate()
                .filter(move |(i, _)| i % clients == client)
                .filter_map(|(i, s)| match s {
                    Step::Create { name, bytes } if name != PROBE => {
                        Some((i as u64, name.clone(), *bytes))
                    }
                    _ => None,
                })
        };
        let mut rng = WorkloadRng::new(stream_seed(seed, client as u64 + 1));
        match self {
            Workload::Makedo => Box::new(MakedoGen {
                seed,
                packages: makedo_packages(sizing),
                client,
                round: 0,
                queue: VecDeque::new(),
                sizes: makedo_setup(seed, sizing, client)
                    .filter_map(|s| match s {
                        Step::Create { name, bytes } => Some((name, bytes)),
                        _ => None,
                    })
                    .collect(),
            }),
            Workload::MailChurn | Workload::CrashBoot => Box::new(MailGen {
                rng,
                live: owned()
                    .map(|(born, name, bytes)| LiveFile { name, bytes, born })
                    .collect(),
                boxes: mailboxes(sizing),
                next_id: (population.len() + client) as u64,
                stride: clients as u64,
                issued: 0,
            }),
            Workload::BulkStream => Box::new(BulkGen {
                phase: rng.unit(),
                client,
                lo: (256 << 10) / sizing.div as u64,
                hi: (2 << 20) / sizing.div as u64,
                budget: (48 << 20) / (sizing.div * clients) as u64,
                live: VecDeque::new(),
                live_bytes: 0,
                seq: 0,
                queue: VecDeque::new(),
            }),
            Workload::ReadMostly => {
                let files: Vec<(String, u64)> = owned().map(|(_, n, b)| (n, b)).collect();
                Box::new(ReadMostlyGen {
                    zipf: Zipf::new(files.len(), 0.9),
                    files,
                    issued: 0,
                    rng,
                    sizes: SizeDistribution::new(stream_seed(seed, 1_000 + client as u64)),
                    recreate: None,
                })
            }
        }
    }

    /// Hash of the traffic the simulated-clock pass sees: the population
    /// and the first [`Self::sim_ops`] ops of a lone client.
    pub fn fingerprint(self, seed: u64, sizing: Sizing) -> u64 {
        let population = self.population(seed, sizing);
        let mut gen = self.client(seed, sizing, &population, 0, 1);
        let mut h = Fnv::default();
        for step in &population {
            h.step(step);
        }
        for _ in 0..self.sim_ops(sizing) {
            h.step(&gen.next_op().step);
        }
        h.finish()
    }
}

/// An independent seed for stream `salt` of a run seeded `seed`.
fn stream_seed(seed: u64, salt: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(salt)
}

/// FNV-1a over (verb, name, size), folded to 48 bits so the value passes
/// through a JSON number unchanged.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn step(&mut self, step: &Step) {
        let (verb, name, size) = match step {
            Step::Create { name, bytes } => (b'c', name, *bytes),
            Step::Read { name } => (b'r', name, 0),
            Step::Touch { name } => (b't', name, 0),
            Step::Delete { name } => (b'd', name, 0),
            Step::List { prefix } => (b'l', prefix, 0),
        };
        self.bytes(&[verb]);
        self.bytes(name.as_bytes());
        self.bytes(&size.to_le_bytes());
    }

    fn finish(self) -> u64 {
        (self.0 ^ (self.0 >> 48)) & ((1 << 48) - 1)
    }
}

// ----- makedo ---------------------------------------------------------------

/// Packages a client owns and compiles in turn, one round each. The
/// paper's size distribution is long-tailed, so the 90 files of a single
/// package make one seed's run 10 % faster or slower than the next
/// seed's; a dozen packages bring seeds within a few percent of each
/// other, and one turn through them still fits the host pass's warm-up,
/// so every measured read hits the engine's cache.
const MAKEDO_PACKAGES: u64 = 12;
/// Files `MakeDoParams::default()` sets up: 25 sources, their 25 outputs
/// and 40 interfaces.
const MAKEDO_PACKAGE_FILES: usize = 90;

fn makedo_packages(sizing: Sizing) -> u64 {
    (MAKEDO_PACKAGES / sizing.div as u64).max(1)
}

/// Round `round` of client `client` (round 0's set-up phase builds the
/// package the later rounds of the same package recompile).
fn makedo_round(seed: u64, packages: u64, client: usize, round: u64) -> (Vec<Step>, Vec<Step>) {
    let (setup, measured) = makedo_workload(MakeDoParams {
        rounds: 1,
        seed: stream_seed(seed, (client as u64 + 1) * 1_000_000 + round),
        ..MakeDoParams::default()
    });
    let prefix = format!("c{client}/k{:02}", round % packages);
    let under = |steps: Vec<Step>| steps.iter().map(|s| s.prefixed(&prefix)).collect();
    (under(setup), under(measured))
}

/// The set-up phases of all of a client's packages.
fn makedo_setup(seed: u64, sizing: Sizing, client: usize) -> impl Iterator<Item = Step> {
    let packages = makedo_packages(sizing);
    (0..packages).flat_map(move |k| makedo_round(seed, packages, client, k).0)
}

/// The paper's compile: `makedo_workload`'s measured phase, round after
/// round, over the client's packages in turn.
struct MakedoGen {
    seed: u64,
    packages: u64,
    client: usize,
    round: u64,
    queue: VecDeque<Step>,
    /// Current size of every package file, for checking reads.
    sizes: HashMap<String, u64>,
}

impl Generator for MakedoGen {
    fn next_op(&mut self) -> Op {
        if self.queue.is_empty() {
            self.queue = makedo_round(self.seed, self.packages, self.client, self.round)
                .1
                .into();
            self.round += 1;
        }
        let step = self.queue.pop_front().expect("a round holds steps");
        let expect = match &step {
            Step::Create { name, bytes } => {
                self.sizes.insert(name.clone(), *bytes);
                0
            }
            Step::Read { name } | Step::Touch { name } => self.sizes[name],
            _ => 0,
        };
        Op { step, expect }
    }
}

// ----- mail_churn and crash_boot --------------------------------------------

fn mailboxes(sizing: Sizing) -> u64 {
    (200 / sizing.div as u64).max(2)
}

fn mail_name(mailbox: u64, id: u64) -> String {
    format!("mbox{mailbox:03}/m{id:07}")
}

struct LiveFile {
    name: String,
    bytes: u64,
    /// Creation rank: smaller is older.
    born: u64,
}

/// Deliver, read, delete in turn, and a listing of one mailbox every
/// fiftieth op.
struct MailGen {
    rng: WorkloadRng,
    live: Vec<LiveFile>,
    boxes: u64,
    next_id: u64,
    stride: u64,
    issued: u64,
}

impl Generator for MailGen {
    fn next_op(&mut self) -> Op {
        self.issued += 1;
        if self.issued.is_multiple_of(50) {
            return Op::new(Step::List {
                prefix: format!("mbox{:03}/", self.rng.range(0, self.boxes)),
            });
        }
        let pick = |rng: &mut WorkloadRng, n: usize| rng.range(0, n as u64) as usize;
        match (self.issued - self.issued / 50) % 3 {
            1 => {
                let id = self.next_id;
                self.next_id += self.stride;
                let name = mail_name(self.rng.range(0, self.boxes), id);
                let bytes = self.rng.range(200, 3_901);
                self.live.push(LiveFile {
                    name: name.clone(),
                    bytes,
                    born: id,
                });
                Op::new(Step::Create { name, bytes })
            }
            2 => {
                let file = &self.live[pick(&mut self.rng, self.live.len())];
                Op {
                    step: Step::Read {
                        name: file.name.clone(),
                    },
                    expect: file.bytes,
                }
            }
            _ => {
                // "Random old": the older of two random picks.
                let a = pick(&mut self.rng, self.live.len());
                let b = pick(&mut self.rng, self.live.len());
                let older = if self.live[a].born <= self.live[b].born {
                    a
                } else {
                    b
                };
                Op::new(Step::Delete {
                    name: self.live.swap_remove(older).name,
                })
            }
        }
    }
}

// ----- bulk_stream ----------------------------------------------------------

/// Write-once ingest: create a large file, read it back once, delete the
/// oldest files until the live set is back under its byte budget.
struct BulkGen {
    /// Position in the size sequence, in [0, 1).
    phase: f64,
    client: usize,
    lo: u64,
    hi: u64,
    budget: u64,
    live: VecDeque<(String, u64)>,
    live_bytes: u64,
    seq: u64,
    queue: VecDeque<Op>,
}

impl Generator for BulkGen {
    fn next_op(&mut self) -> Op {
        if let Some(op) = self.queue.pop_front() {
            return op;
        }
        let name = format!("stream/c{}/f{:06}", self.client, self.seq);
        self.seq += 1;
        // Log-uniform between the bounds, but by a golden-ratio sequence
        // from a random start instead of independent draws: any stretch
        // of files covers the size range evenly, so the bytes a run moves
        // depend on the seed by a fraction of a percent, not by 5 %.
        self.phase = (self.phase + 0.618_033_988_749_895).fract();
        let (lo, hi) = ((self.lo as f64).log2(), (self.hi as f64).log2());
        let bytes = (lo + self.phase * (hi - lo)).exp2() as u64;
        self.queue.push_back(Op {
            step: Step::Read { name: name.clone() },
            expect: bytes,
        });
        self.live.push_back((name.clone(), bytes));
        self.live_bytes += bytes;
        while self.live_bytes > self.budget && self.live.len() > 1 {
            let (old, old_bytes) = self.live.pop_front().expect("live set is not empty");
            self.live_bytes -= old_bytes;
            self.queue.push_back(Op::new(Step::Delete { name: old }));
        }
        Op::new(Step::Create { name, bytes })
    }
}

// ----- read_mostly ----------------------------------------------------------

/// Zipf-distributed ranks `0..n` by inverse CDF over a cumulative table.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64) -> Self {
        let mut total = 0.0;
        let cumulative = (1..=n.max(1))
            .map(|rank| {
                total += (rank as f64).powf(-exponent);
                total
            })
            .collect();
        Self { cumulative }
    }

    /// The rank whose slice of the distribution holds `unit` ∈ [0, 1).
    pub fn rank(&self, unit: f64) -> usize {
        let total = self.cumulative[self.cumulative.len() - 1];
        self.cumulative
            .partition_point(|&c| c <= unit * total)
            .min(self.cumulative.len() - 1)
    }
}

/// Ops between one-file shifts of the popularity ranking.
const DRIFT_EVERY: u64 = 64;

/// 90 % reads and 5 % opens of a Zipf-ranked file; 5 % replacements (a
/// delete and a create of the same name) of a uniformly chosen one.
///
/// Popularity drifts: every [`DRIFT_EVERY`] ops each rank moves on to the
/// next file. Under a fixed ranking the ten hottest files take a fifth of
/// all reads, and whether they happen to be 2 KB or 16 KB files moved
/// every metric by 5–15 % from seed to seed; with the drift the head
/// visits a few hundred files in a run and their sizes average out,
/// while the hot set at any moment is as small as before.
struct ReadMostlyGen {
    files: Vec<(String, u64)>,
    issued: u64,
    zipf: Zipf,
    rng: WorkloadRng,
    sizes: SizeDistribution,
    /// Second half of a replacement in flight.
    recreate: Option<usize>,
}

impl Generator for ReadMostlyGen {
    fn next_op(&mut self) -> Op {
        if let Some(i) = self.recreate.take() {
            let bytes = self.sizes.sample().min(16_000);
            self.files[i].1 = bytes;
            return Op::new(Step::Create {
                name: self.files[i].0.clone(),
                bytes,
            });
        }
        self.issued += 1;
        let choice = self.rng.unit();
        if choice < 0.95 {
            let shift = (self.issued / DRIFT_EVERY) as usize;
            let hot = (self.zipf.rank(self.rng.unit()) + shift) % self.files.len();
            let (name, bytes) = self.files[hot].clone();
            let step = if choice < 0.90 {
                Step::Read { name }
            } else {
                Step::Touch { name }
            };
            Op {
                step,
                expect: bytes,
            }
        } else {
            let i = self.rng.range(0, self.files.len() as u64) as usize;
            self.recreate = Some(i);
            Op::new(Step::Delete {
                name: self.files[i].0.clone(),
            })
        }
    }
}
