//! The three workloads and the per-layer attribution run.
//!
//! All are closed loops driven from this process with at most two threads
//! of load (`campaign` uses two campaign workers; `protect` runs one
//! real-engine program at a time on two SPMD threads plus the monitor
//! thread; `compile` is single-threaded). Each loop stops at the first
//! pass boundary after its time budget, so every run covers whole passes
//! over the workload's inputs.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use bw_fault::{FaultModel, FaultOutcome};
use bw_gen::GenConfig;
use bw_splash::{Benchmark, Size};
use bw_vm::{EngineKind, MonitorMode, ProgramImage, RunOutcome, RunResult, SplitMix64};

use crate::layers::{self, slug, Cell, CompileFacts, Program, Source, StageTimes};
use crate::reference::{self, Table};
use crate::stats::{geomean, median, percentile, samples_above, spread};
use crate::trace::{ms, Tracer};

/// Ports of the `campaign` workload (the paper's Figure 8/9 programs).
const CAMPAIGN_PORTS: [Benchmark; 5] = [
    Benchmark::Fft,
    Benchmark::Radix,
    Benchmark::OceanContig,
    Benchmark::WaterNsquared,
    Benchmark::Raytrace,
];
/// Simulated SPMD threads of every campaign run.
const CAMPAIGN_THREADS: u32 = 4;
/// Campaign workers in the timed loop.
const CAMPAIGN_WORKERS: usize = 2;
/// Injections per campaign call; one reference row holds this many.
const ROUND_INJECTIONS: usize = 16;
/// Campaign seeds with committed outcomes per cell. A pass of the timed
/// loop runs all of them, so its mix of outcomes (and of their costs) is
/// the same for every run seed.
const REF_SEEDS: u64 = 2;

/// Ports of the `protect` workload (real engine, `Size::Small`).
const PROTECT_PORTS: [Benchmark; 4] = [
    Benchmark::Fft,
    Benchmark::Radix,
    Benchmark::OceanContig,
    Benchmark::WaterNsquared,
];
/// SPMD OS threads of every protected run (plus the monitor thread).
const PROTECT_THREADS: u32 = 2;
const MODES: [MonitorMode; 3] = [
    MonitorMode::Off,
    MonitorMode::SendOnly,
    MonitorMode::Enabled,
];

/// Generated modules in the `compile` corpus, with committed facts.
const GEN_POOL: u64 = 256;

/// Set-ups per untraced run, each followed by a slice of the timed loop.
const SETUP_REPS: usize = 7;
/// Sim-engine repetitions per port and monitor mode in the sim probe.
const SIM_REPS: usize = 5;
/// Mode cycles of the real-engine probe on workloads that do not run it.
const REAL_PROBE_CYCLES: usize = 5;
/// Ingest streams timed per traced run.
const INGEST_REPS: usize = 5;

/// The `n`-th campaign seed with committed outcomes.
fn ref_seed(n: u64) -> u64 {
    0xB10C_2012_0000 + n
}

/// The 20 cells of the campaign grid: port × fault model × arm.
fn cells() -> Vec<Cell> {
    let mut out = Vec::new();
    for port in 0..CAMPAIGN_PORTS.len() {
        for model in [FaultModel::BranchFlip, FaultModel::ConditionBitFlip] {
            for arm in [MonitorMode::Enabled, MonitorMode::Off] {
                out.push(Cell { port, model, arm });
            }
        }
    }
    out
}

/// The generator settings of the `compile` corpus.
fn gen_config() -> GenConfig {
    GenConfig {
        max_stmts: 120,
        max_depth: 4,
        ..GenConfig::default()
    }
}

/// One generated module of the pool, printed as IR text.
fn gen_program(pool_index: u64) -> Program {
    let module = bw_gen::generate_module(pool_index, &gen_config());
    Program {
        name: format!("gen:{pool_index}"),
        source: Source::Bwir(bw_ir::ModulePrinter(&module).to_string()),
    }
}

/// A SPLASH port as mini-language source.
fn splash_program(b: Benchmark, size: Size) -> Program {
    Program {
        name: slug(b).to_string(),
        source: Source::Mini(b.source(size)),
    }
}

/// Which workload a run measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Seeded sim-engine fault-injection campaigns.
    Campaign,
    /// Real-engine protected runs.
    Protect,
    /// Source-to-image compilation.
    Compile,
}

impl Workload {
    /// Parses a `--workload` value.
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "campaign" => Some(Workload::Campaign),
            "protect" => Some(Workload::Protect),
            "compile" => Some(Workload::Compile),
            _ => None,
        }
    }
}

/// The committed references, parsed once.
pub struct Refs {
    campaign: Table,
    protect: Table,
    compile: Table,
}

impl Default for Refs {
    fn default() -> Self {
        Refs {
            campaign: Table::parse(reference::CAMPAIGN, 4),
            protect: Table::parse(reference::PROTECT, 1),
            compile: Table::parse(reference::COMPILE, 1),
        }
    }
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose output differed from the reference.
    pub failed: u64,
    /// `(name, value, unit)` in emission order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable context: sample counts, spreads, bases of ratios.
    pub notes: Vec<String>,
    /// The first few failures, for the error stream.
    pub failures: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// The value of a metric already reported.
    fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }
}

/// How long a loop runs: wall seconds, or a fixed number of passes.
#[derive(Clone, Copy, Debug)]
enum Budget {
    /// Stop at the first pass boundary after this many seconds.
    Seconds(f64),
    /// Stop after this many passes.
    Passes(usize),
}

impl Budget {
    fn done(self, started: Instant, passes: usize) -> bool {
        match self {
            Budget::Seconds(s) => started.elapsed().as_secs_f64() >= s,
            Budget::Passes(n) => passes >= n,
        }
    }
}

/// The fast-phase latency of a unit of work: its fastest repetition in the
/// run. The host runs in phases lasting seconds in which CPU-bound code is
/// up to 1.5x slower, and a whole run can fall into one; a median over a
/// run moves with the share of slow phases it got, the minimum does not.
fn fast(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Latency samples of one loop. Every pass repeats every operation once,
/// so each has one sample per pass.
#[derive(Debug)]
struct LoopStats {
    /// Operations run in parallel (campaign workers; 1 elsewhere).
    workers: u64,
    ops: u64,
    wall: Duration,
    /// Per operation (program, protected run, injection): its class and
    /// its latencies (ms).
    op_ms: BTreeMap<String, (String, Vec<f64>)>,
}

impl LoopStats {
    fn new(workers: usize) -> Self {
        LoopStats {
            workers: workers as u64,
            ops: 0,
            wall: Duration::ZERO,
            op_ms: BTreeMap::new(),
        }
    }

    /// Adds another slice of the same loop.
    fn absorb(&mut self, other: LoopStats) {
        self.ops += other.ops;
        self.wall += other.wall;
        for (key, (class, ms)) in other.op_ms {
            self.op_ms
                .entry(key)
                .or_insert_with(|| (class, Vec::new()))
                .1
                .extend(ms);
        }
    }

    /// One pass with every operation at its fast-phase latency (ms of
    /// worker time).
    fn fast_pass_ms(&self) -> f64 {
        self.op_ms.values().map(|(_, v)| fast(v)).sum()
    }

    fn op(&mut self, key: String, class: &str, took: f64) {
        self.op_ms
            .entry(key)
            .or_insert_with(|| (class.to_string(), Vec::new()))
            .1
            .push(took);
    }

    /// The end-to-end metrics of a loop, with per-class sample counts as
    /// notes. Throughput and the median come from fast-phase latencies;
    /// the p90 comes from every sample, so it keeps the tail.
    fn report_end_to_end(&self, report: &mut Report) {
        let per_pass = (self.workers * self.op_ms.len() as u64) as f64;
        report.metric("ops_per_s", per_pass * 1e3 / self.fast_pass_ms(), "1/s");
        let mut classes: BTreeMap<&str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for (class, v) in self.op_ms.values() {
            let c = classes.entry(class).or_default();
            c.0.push(fast(v));
            c.1.extend_from_slice(v);
        }
        let p50: Vec<f64> = classes.values().map(|(f, _)| median(f)).collect();
        let p90: Vec<f64> = classes
            .values()
            .map(|(_, all)| percentile(all, 0.9))
            .collect();
        report.metric("op_ms_p50", geomean(&p50), "ms");
        report.metric("op_ms_p90", geomean(&p90), "ms");
        report.note(format!(
            "loop: {} operations in {:.3} s ({:.1}/s by wall clock)",
            self.ops,
            self.wall.as_secs_f64(),
            self.ops as f64 / self.wall.as_secs_f64()
        ));
        for (class, (f, all)) in &classes {
            report.note(format!(
                "{class}: {} ops, {} samples, fast p50 {:.3} ms, p50 {:.3} ms, p90 {:.3} ms ({} samples above p90)",
                f.len(),
                all.len(),
                median(f),
                median(all),
                percentile(all, 0.9),
                samples_above(all.len(), 0.9)
            ));
        }
    }
}

/// Compile-layer samples: untraced whole compiles and traced stage times.
#[derive(Debug, Default)]
struct CompileLayer {
    untraced_ms: Vec<f64>,
    /// Traced compiles with the IR values each analyzed.
    stages: Vec<(StageTimes, u64)>,
    facts: BTreeMap<String, CompileFacts>,
}

/// Inputs of the campaign workload, ready to inject into.
struct CampaignInputs {
    images: Vec<ProgramImage>,
    /// Golden runs per port: `[protected, unprotected]`.
    goldens: Vec<[RunResult; 2]>,
    golden_ms: Vec<f64>,
}

impl CampaignInputs {
    fn golden(&self, cell: Cell) -> &RunResult {
        &self.goldens[cell.port][usize::from(cell.arm == MonitorMode::Off)]
    }
}

/// One benchmark run: the seed, the references and the tally.
pub struct Bench<'a> {
    refs: &'a Refs,
    seed: u64,
    tracer: Option<&'a Tracer>,
    /// Metrics and checks so far.
    pub report: Report,
}

impl<'a> Bench<'a> {
    /// A run with `seed`, tracing into `tracer` when given.
    pub fn new(refs: &'a Refs, seed: u64, tracer: Option<&'a Tracer>) -> Self {
        Bench {
            refs,
            seed,
            tracer,
            report: Report::default(),
        }
    }

    fn rng(&self, stream: u64) -> SplitMix64 {
        SplitMix64::new(self.seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Compiles `program`, checks its facts against the reference and
    /// records its compile times in `layer`.
    fn compile_checked(
        &mut self,
        program: &Program,
        traced: bool,
        layer: &mut CompileLayer,
    ) -> Result<ProgramImage, String> {
        let tracer = if traced { self.tracer } else { None };
        let started = Instant::now();
        let (image, stages) = layers::compile(program, tracer)?;
        let took = ms(started.elapsed());
        let facts = CompileFacts::of(&image);
        match stages {
            Some(s) => layer.stages.push((s, facts.values)),
            None => layer.untraced_ms.push(took),
        }
        let expected = self.refs.compile.get(&program.name).map(|r| r.join(" "));
        self.report
            .check(expected.as_deref() == Some(facts.row().as_str()), || {
                format!(
                    "compile {}: facts {} != reference {expected:?}",
                    program.name,
                    facts.row()
                )
            });
        layer.facts.insert(program.name.clone(), facts);
        Ok(image)
    }

    fn campaign_inputs(
        &mut self,
        traced: bool,
        layer: &mut CompileLayer,
    ) -> Result<CampaignInputs, String> {
        let tracer = if traced { self.tracer } else { None };
        let mut inputs = CampaignInputs {
            images: Vec::new(),
            goldens: Vec::new(),
            golden_ms: Vec::new(),
        };
        for b in CAMPAIGN_PORTS {
            let image = self.compile_checked(&splash_program(b, Size::Test), traced, layer)?;
            let mut pair = Vec::with_capacity(2);
            for arm in [MonitorMode::Enabled, MonitorMode::Off] {
                let (golden, took) = layers::golden(&image, CAMPAIGN_THREADS, arm, slug(b), tracer);
                inputs.golden_ms.push(ms(took));
                if golden.outcome != RunOutcome::Completed {
                    return Err(format!("{} golden run ended {:?}", slug(b), golden.outcome));
                }
                pair.push(golden);
            }
            let pair: [RunResult; 2] = pair.try_into().expect("two arms");
            inputs.goldens.push(pair);
            inputs.images.push(image);
        }
        Ok(inputs)
    }

    /// Checks one fault-free run of a protect port against its reference.
    fn check_protected(&mut self, port: &str, mode: MonitorMode, result: &RunResult) {
        let expected = self.refs.protect.get(port).map(|r| r.join(" "));
        let got = format!(
            "{PROTECT_THREADS} {} {:016x} {} {}",
            result.outputs.len(),
            layers::output_digest(result),
            result.events_sent + result.events_dropped,
            result.total_steps
        );
        // Events are branch events the program tried to send (queued or
        // dropped); with the monitor off there are none.
        let expected_cmp = expected.as_deref().map(|e| {
            let mut f: Vec<&str> = e.split(' ').collect();
            if mode == MonitorMode::Off && f.len() == 5 {
                f[3] = "0";
            }
            f.join(" ")
        });
        let ok = result.outcome == RunOutcome::Completed
            && result.violations.is_empty()
            && expected_cmp.as_deref() == Some(got.as_str());
        self.report.check(ok, || {
            format!(
                "protect {port} {mode:?}: {:?}, {} violation(s), got `{got}`, reference {expected:?}",
                result.outcome,
                result.violations.len()
            )
        });
    }

    fn protect_inputs(
        &mut self,
        traced: bool,
        layer: &mut CompileLayer,
    ) -> Result<Vec<ProgramImage>, String> {
        let tracer = if traced { self.tracer } else { None };
        let mut images = Vec::new();
        for b in PROTECT_PORTS {
            let image = self.compile_checked(&splash_program(b, Size::Small), traced, layer)?;
            // Enabled, not Off: real Off runs are bimodal on a 2-core host.
            let (golden, _) = layers::run(
                EngineKind::Real,
                &image,
                PROTECT_THREADS,
                MonitorMode::Enabled,
                slug(b),
                tracer,
            );
            self.check_protected(slug(b), MonitorMode::Enabled, &golden);
            images.push(image);
        }
        Ok(images)
    }

    fn compile_inputs(
        &mut self,
        traced: bool,
        layer: &mut CompileLayer,
    ) -> Result<Vec<Program>, String> {
        let mut programs: Vec<Program> = Benchmark::ALL
            .iter()
            .map(|&b| splash_program(b, Size::Reference))
            .collect();
        programs.extend((0..GEN_POOL).map(gen_program));
        shuffle(&mut self.rng(1), &mut programs);
        for p in &programs {
            self.compile_checked(p, traced, layer)?;
        }
        Ok(programs)
    }

    /// Every (cell, reference seed) round, in seed-shuffled order: one pass
    /// of the timed loop.
    pub fn campaign_pass(&self) -> Vec<(usize, u64)> {
        let mut rounds: Vec<(usize, u64)> = (0..cells().len())
            .flat_map(|c| (0..REF_SEEDS).map(move |n| (c, ref_seed(n))))
            .collect();
        shuffle(&mut self.rng(2), &mut rounds);
        rounds
    }

    /// One round per cell at a seed-chosen reference seed: the short pass
    /// the traced run repeats untraced, traced, and at one worker.
    pub fn campaign_sample(&self) -> Vec<(usize, u64)> {
        let mut rng = self.rng(4);
        (0..cells().len())
            .map(|c| (c, ref_seed(rng.below(REF_SEEDS as i64) as u64)))
            .collect()
    }

    /// Runs `rounds` pass after pass within `budget`; returns the loop
    /// stats (latency classes are cells) and every injection as
    /// `(cell, outcome, latency ms)`.
    fn campaign_loop(
        &mut self,
        inputs: &CampaignInputs,
        rounds: &[(usize, u64)],
        budget: Budget,
        workers: usize,
        traced: bool,
    ) -> Result<(LoopStats, Vec<Injection>), String> {
        let tracer = if traced { self.tracer } else { None };
        let cells = cells();
        let mut stats = LoopStats::new(workers);
        let mut all = Vec::new();
        let started = Instant::now();
        let mut passes = 0;
        while !budget.done(started, passes) {
            for &(c, seed) in rounds {
                let cell = cells[c];
                let port = slug(CAMPAIGN_PORTS[cell.port]);
                let round = layers::campaign(
                    &inputs.images[cell.port],
                    inputs.golden(cell),
                    cell,
                    CAMPAIGN_THREADS,
                    seed,
                    ROUND_INJECTIONS,
                    workers,
                    port,
                    tracer,
                )?;
                let key = format!("{port} {} {} {seed}", cell.model_name(), cell.arm_name());
                let expected: Vec<char> = self
                    .refs
                    .campaign
                    .get(&key)
                    .and_then(|r| r.first())
                    .map(|s| s.chars().collect())
                    .unwrap_or_default();
                for (i, &o) in round.outcomes.iter().enumerate() {
                    let want = expected.get(i).copied();
                    self.report
                        .check(want == Some(layers::outcome_code(o)), || {
                            format!(
                                "campaign {key} injection {i}: {} != reference {want:?}",
                                o.name()
                            )
                        });
                }
                stats.ops += round.outcomes.len() as u64;
                let class = format!("{port}/{}/{}", cell.model_name(), cell.arm_name());
                for &(i, o, l) in &round.latencies {
                    stats.op(format!("{c}/{seed}/{i}"), &class, l);
                    all.push((c, o, l));
                }
            }
            passes += 1;
        }
        stats.wall = started.elapsed();
        Ok((stats, all))
    }

    /// Real-engine runs of the protect ports, cycling through `modes` per
    /// port. Returns the loop stats (Enabled latencies by port) and every
    /// sample as `[port][mode] -> ms`, with event totals.
    fn protect_loop(
        &mut self,
        images: &[ProgramImage],
        modes: &[MonitorMode],
        budget: Budget,
        traced: bool,
    ) -> (LoopStats, RealSamples) {
        let tracer = if traced { self.tracer } else { None };
        let mut rng = self.rng(3);
        let mut stats = LoopStats::new(1);
        let mut real = RealSamples::new(images.len());
        let started = Instant::now();
        let mut passes = 0;
        while !budget.done(started, passes) {
            let mut order: Vec<usize> = (0..images.len()).collect();
            shuffle(&mut rng, &mut order);
            for &p in &order {
                let port = slug(PROTECT_PORTS[p]);
                for &mode in modes {
                    let (result, took) = layers::run(
                        EngineKind::Real,
                        &images[p],
                        PROTECT_THREADS,
                        mode,
                        port,
                        tracer,
                    );
                    self.check_protected(port, mode, &result);
                    let m = MODES.iter().position(|&x| x == mode).expect("known mode");
                    real.ms[p][m].push(ms(took));
                    if mode == MonitorMode::Enabled {
                        let events = result.events_sent + result.events_dropped;
                        real.events[p] = events;
                        real.sent += events;
                        real.dropped += result.events_dropped;
                        stats.ops += 1;
                        stats.op(port.to_string(), port, ms(took));
                    }
                }
            }
            passes += 1;
        }
        stats.wall = started.elapsed();
        (stats, real)
    }

    /// Compiles the corpus in order, pass after pass.
    fn compile_loop(
        &mut self,
        programs: &[Program],
        budget: Budget,
        traced: bool,
        layer: &mut CompileLayer,
    ) -> Result<LoopStats, String> {
        let mut stats = LoopStats::new(1);
        let started = Instant::now();
        let mut passes = 0;
        while !budget.done(started, passes) {
            for p in programs {
                let op = Instant::now();
                let image = self.compile_checked(p, traced, layer)?;
                let mut took = ms(op.elapsed());
                drop(image);
                if traced {
                    // The standalone verify/analyze/plan calls serve
                    // attribution only; they are not part of the operation.
                    let (s, _) = layer.stages.last().expect("traced compile records stages");
                    took -= ms(s.verify + s.analyze + s.plan);
                }
                let class = if p.name.starts_with("gen:") {
                    "gen"
                } else {
                    p.name.as_str()
                };
                stats.op(p.name.clone(), class, took);
                stats.ops += 1;
            }
            passes += 1;
        }
        stats.wall = started.elapsed();
        Ok(stats)
    }

    /// Untraced measurement: reports the end-to-end metrics. The run
    /// alternates a set-up and a slice of the timed loop `SETUP_REPS`
    /// times, so the set-ups are spread over the run like the loop's
    /// passes, and `setup_s` is the fastest of them: set-ups done back to
    /// back fall into one host phase, and their median moved by 32%
    /// between two sets of ten `compile` runs.
    pub fn end_to_end(&mut self, workload: Workload, seconds: f64) -> Result<(), String> {
        let mut layer = CompileLayer::default();
        let slice = Budget::Seconds(seconds / SETUP_REPS as f64);
        let workers = match workload {
            Workload::Campaign => CAMPAIGN_WORKERS,
            _ => 1,
        };
        let mut stats = LoopStats::new(workers);
        let mut setups = Vec::with_capacity(SETUP_REPS);
        for _ in 0..SETUP_REPS {
            let started = Instant::now();
            let part = match workload {
                Workload::Campaign => {
                    let inputs = self.campaign_inputs(false, &mut layer)?;
                    setups.push(started.elapsed().as_secs_f64());
                    let rounds = self.campaign_pass();
                    self.campaign_loop(&inputs, &rounds, slice, workers, false)?
                        .0
                }
                Workload::Protect => {
                    let images = self.protect_inputs(false, &mut layer)?;
                    setups.push(started.elapsed().as_secs_f64());
                    self.protect_loop(&images, &[MonitorMode::Enabled], slice, false)
                        .0
                }
                Workload::Compile => {
                    let programs = self.compile_inputs(false, &mut layer)?;
                    setups.push(started.elapsed().as_secs_f64());
                    self.compile_loop(&programs, slice, false, &mut layer)?
                }
            };
            stats.absorb(part);
        }
        stats.report_end_to_end(&mut self.report);
        self.report.metric("setup_s", fast(&setups), "s");
        self.report.note(format!(
            "setup: {} set-ups, fastest {:.4} s, median {:.4} s",
            setups.len(),
            fast(&setups),
            median(&setups)
        ));
        // Not a gated metric: on `protect` glibc's per-thread malloc arenas
        // move it between 64 and 91 MiB from run to run.
        self.report
            .note(format!("peak_rss_mb = {} MiB (VmHWM)", peak_rss_mb()));
        Ok(())
    }

    /// Traced measurement: every layer's metrics. The workload's own inputs
    /// and loop supply the layers it exercises; fixed-size probes on the
    /// `campaign` and `protect` inputs supply the others, so every workload
    /// reports every per-layer metric. Compiles of probe inputs are checked
    /// but not counted in the compile layer.
    pub fn per_layer(&mut self, workload: Workload, seconds: f64) -> Result<(), String> {
        let mut probe = CompileLayer::default();
        let mut layer = CompileLayer::default();
        let loop_budget = Budget::Seconds(seconds / 5.0);
        let compile_budget = Budget::Seconds(seconds / 10.0);
        let (programs, campaign, protect, overhead) = match workload {
            Workload::Campaign => {
                let inputs = self.campaign_inputs(true, &mut probe)?;
                let rounds = self.campaign_sample();
                let (plain, _) =
                    self.campaign_loop(&inputs, &rounds, loop_budget, CAMPAIGN_WORKERS, false)?;
                let (traced, _) =
                    self.campaign_loop(&inputs, &rounds, loop_budget, CAMPAIGN_WORKERS, true)?;
                let programs = CAMPAIGN_PORTS
                    .map(|b| splash_program(b, Size::Test))
                    .to_vec();
                let overhead = traced.fast_pass_ms() / plain.fast_pass_ms() - 1.0;
                (
                    programs,
                    inputs,
                    self.protect_inputs(true, &mut probe)?,
                    Some(overhead),
                )
            }
            Workload::Protect => {
                let images = self.protect_inputs(true, &mut probe)?;
                let enabled = [MonitorMode::Enabled];
                let (plain, _) = self.protect_loop(&images, &enabled, loop_budget, false);
                let (traced, _) = self.protect_loop(&images, &enabled, loop_budget, true);
                let programs = PROTECT_PORTS
                    .map(|b| splash_program(b, Size::Small))
                    .to_vec();
                let overhead = traced.fast_pass_ms() / plain.fast_pass_ms() - 1.0;
                (
                    programs,
                    self.campaign_inputs(true, &mut probe)?,
                    images,
                    Some(overhead),
                )
            }
            Workload::Compile => {
                let programs = self.compile_inputs(false, &mut probe)?;
                let campaign = self.campaign_inputs(true, &mut probe)?;
                (
                    programs,
                    campaign,
                    self.protect_inputs(true, &mut probe)?,
                    None,
                )
            }
        };
        let budget = if workload == Workload::Compile {
            loop_budget
        } else {
            compile_budget
        };
        let plain = self.compile_loop(&programs, budget, false, &mut layer)?;
        let traced = self.compile_loop(&programs, budget, true, &mut layer)?;
        // On `compile` the compile loop is the workload's own loop.
        let overhead =
            overhead.unwrap_or_else(|| traced.fast_pass_ms() / plain.fast_pass_ms() - 1.0);
        self.report_compile_layer(&layer);
        self.sim_layer(&campaign);
        let real_budget = match workload {
            Workload::Protect => Budget::Seconds(seconds * 0.3),
            _ => Budget::Passes(REAL_PROBE_CYCLES),
        };
        let (_, real) = self.protect_loop(&protect, &MODES, real_budget, true);
        self.report_real_layer(&real);
        self.ingest_layer();
        self.fault_layer(&campaign)?;
        self.report.metric("trace.overhead_frac", overhead, "ratio");
        Ok(())
    }

    fn report_compile_layer(&mut self, layer: &CompileLayer) {
        let n = layer.stages.len().max(1) as f64;
        let mean = |f: fn(&StageTimes) -> Duration| {
            layer.stages.iter().map(|(s, _)| ms(f(s))).sum::<f64>() / n
        };
        let parse = mean(|s| s.parse);
        let verify = mean(|s| s.verify);
        let analyze = mean(|s| s.analyze);
        let plan = mean(|s| s.plan);
        let link = mean(|s| s.prepare) - verify - analyze - plan;
        let values: u64 = layer.facts.values().map(|f| f.values).sum();
        let analyzed_values: u64 = layer.stages.iter().map(|(_, v)| v).sum();
        let analyze_total_s: f64 = layer
            .stages
            .iter()
            .map(|(s, _)| s.analyze.as_secs_f64())
            .sum();
        let untraced =
            layer.untraced_ms.iter().sum::<f64>() / layer.untraced_ms.len().max(1) as f64;
        let r = &mut self.report;
        r.metric("ir.parse_ms", parse, "ms");
        r.metric("ir.verify_ms", verify, "ms");
        r.metric("ir.values", values as f64, "count");
        r.metric("analysis.analyze_ms", analyze, "ms");
        r.metric(
            "analysis.values_per_s",
            analyzed_values as f64 / analyze_total_s,
            "1/s",
        );
        r.metric("analysis.plan_ms", plan, "ms");
        r.metric(
            "analysis.branches",
            layer.facts.values().map(|f| f.branches).sum::<u64>() as f64,
            "count",
        );
        r.metric(
            "analysis.checked_branches",
            layer.facts.values().map(|f| f.checked).sum::<u64>() as f64,
            "count",
        );
        r.metric("vm.link_ms", link, "ms");
        r.metric(
            "compile.unattributed_frac",
            1.0 - (parse + verify + analyze + plan + link) / untraced,
            "ratio",
        );
        r.note(format!(
            "compile: {} traced and {} untraced compiles of {} programs; untraced {untraced:.4} ms/program",
            layer.stages.len(),
            layer.untraced_ms.len(),
            layer.facts.len()
        ));
    }

    /// Fault-free sim runs of the campaign ports, monitor off and on.
    fn sim_layer(&mut self, inputs: &CampaignInputs) {
        let mut on_ms = Vec::new();
        let (mut steps, mut events, mut overheads, mut check_ms) = (0u64, 0u64, Vec::new(), 0.0);
        let mut steps_per_s = (0u64, 0.0);
        for (p, image) in inputs.images.iter().enumerate() {
            let port = slug(CAMPAIGN_PORTS[p]);
            let (mut on, mut off) = (Vec::new(), Vec::new());
            let (mut r_on, mut r_off) = (None, None);
            for _ in 0..SIM_REPS {
                for mode in [MonitorMode::Off, MonitorMode::Enabled] {
                    let (result, took) = layers::run(
                        EngineKind::Sim,
                        image,
                        CAMPAIGN_THREADS,
                        mode,
                        port,
                        self.tracer,
                    );
                    let ok =
                        result.outcome == RunOutcome::Completed && result.violations.is_empty();
                    self.report
                        .check(ok, || format!("sim {port} {mode:?}: {:?}", result.outcome));
                    if mode == MonitorMode::Off {
                        off.push(ms(took));
                        r_off = Some(result);
                    } else {
                        on.push(ms(took));
                        r_on = Some(result);
                    }
                }
            }
            let (r_on, r_off) = (r_on.expect("SIM_REPS > 0"), r_off.expect("SIM_REPS > 0"));
            let (m_on, m_off) = (median(&on), median(&off));
            steps += r_on.total_steps;
            events += r_on.events_sent;
            overheads.push(r_on.parallel_cycles as f64 / r_off.parallel_cycles as f64);
            check_ms += m_on - m_off;
            steps_per_s.0 += r_off.total_steps;
            steps_per_s.1 += m_off / 1e3;
            self.report
                .metric(format!("vm.sim.run_ms.{port}"), m_on, "ms");
            on_ms.push(m_on);
        }
        let r = &mut self.report;
        r.metric("vm.sim.run_ms", geomean(&on_ms), "ms");
        r.metric(
            "vm.sim.steps_per_s",
            steps_per_s.0 as f64 / steps_per_s.1,
            "1/s",
        );
        r.metric("vm.sim.modelled_overhead", geomean(&overheads), "ratio");
        r.metric(
            "monitor.sim_check_us_per_event",
            check_ms * 1e3 / events as f64,
            "us",
        );
        r.metric("vm.sim.steps", steps as f64, "count");
        r.metric("vm.sim.events", events as f64, "count");
    }

    fn report_real_layer(&mut self, real: &RealSamples) {
        let med = |p: usize, m: usize| median(&real.ms[p][m]);
        let ports = 0..real.ms.len();
        let off: Vec<f64> = ports.clone().map(|p| med(p, 0)).collect();
        let events: u64 = real.events.iter().sum();
        let send: f64 = ports.clone().map(|p| med(p, 1) - med(p, 0)).sum();
        let check: f64 = ports.clone().map(|p| med(p, 2) - med(p, 1)).sum();
        let overhead: Vec<f64> = ports.clone().map(|p| med(p, 2) / med(p, 0)).collect();
        let r = &mut self.report;
        r.metric("vm.real.off_ms_p50", geomean(&off), "ms");
        r.metric(
            "vm.real.send_us_per_event",
            send * 1e3 / events as f64,
            "us",
        );
        r.metric("vm.real.protection_overhead", geomean(&overhead), "ratio");
        r.metric(
            "monitor.check_us_per_event",
            check * 1e3 / events as f64,
            "us",
        );
        r.metric(
            "monitor.dropped_frac",
            real.dropped as f64 / real.sent.max(1) as f64,
            "ratio",
        );
        r.metric("vm.real.events", events as f64, "count");
        r.note(format!(
            "real: dropped {} of {} events Enabled runs tried to send (queue still full after the sender's spin budget)",
            real.dropped, real.sent
        ));
        for p in ports {
            let port = slug(PROTECT_PORTS[p]);
            let line: Vec<String> = MODES
                .iter()
                .enumerate()
                .map(|(m, mode)| {
                    let v = &real.ms[p][m];
                    format!(
                        "{mode:?} n={} p50={:.3} ms spread={:.3}",
                        v.len(),
                        median(v),
                        spread(v)
                    )
                })
                .collect();
            r.note(format!("real {port}: {}", line.join("; ")));
        }
    }

    fn ingest_layer(&mut self) {
        let rates: Vec<f64> = (0..INGEST_REPS)
            .map(|_| {
                let (events, took) = layers::ingest(self.tracer);
                events as f64 / took.as_secs_f64()
            })
            .collect();
        self.report
            .metric("monitor.ingest_events_per_s", median(&rates), "1/s");
    }

    /// One single-worker round per campaign cell, traced per injection.
    fn fault_layer(&mut self, inputs: &CampaignInputs) -> Result<(), String> {
        let rounds = self.campaign_sample();
        let (_, all) = self.campaign_loop(inputs, &rounds, Budget::Passes(1), 1, true)?;
        let cells = cells();
        let lat: Vec<f64> = all.iter().map(|&(_, _, l)| l).collect();
        let hung: f64 = all
            .iter()
            .filter(|(_, o, _)| *o == FaultOutcome::Hung)
            .map(|&(_, _, l)| l)
            .sum();
        let count = |o: FaultOutcome| all.iter().filter(|(_, x, _)| *x == o).count() as f64;
        let p50 = percentile(&lat, 0.5);
        let r = &mut self.report;
        r.metric(
            "fault.golden_ms",
            inputs.golden_ms.iter().sum::<f64>() / inputs.golden_ms.len() as f64,
            "ms",
        );
        r.metric("fault.injection_ms_p50", p50, "ms");
        r.metric("fault.injection_ms_p90", percentile(&lat, 0.9), "ms");
        r.metric(
            "fault.hung_time_frac",
            hung / lat.iter().sum::<f64>(),
            "ratio",
        );
        for (p, b) in CAMPAIGN_PORTS.iter().enumerate() {
            let protected: Vec<f64> = all
                .iter()
                .filter(|&&(c, _, _)| cells[c].port == p && cells[c].arm == MonitorMode::Enabled)
                .map(|&(_, _, l)| l)
                .collect();
            let run = self
                .report
                .get(&format!("vm.sim.run_ms.{}", slug(*b)))
                .unwrap_or(f64::NAN);
            self.report.metric(
                format!("fault.replay_frac.{}", slug(*b)),
                run / median(&protected),
                "ratio",
            );
        }
        let r = &mut self.report;
        for (name, o) in [
            ("detected", FaultOutcome::Detected),
            ("sdc", FaultOutcome::Sdc),
            ("masked", FaultOutcome::Masked),
            ("crashed", FaultOutcome::Crashed),
            ("hung", FaultOutcome::Hung),
        ] {
            r.metric(format!("fault.outcome.{name}"), count(o), "count");
        }
        r.note(format!(
            "fault: {} injections at 1 worker, {} not activated; injection p50 {p50:.3} ms",
            lat.len(),
            count(FaultOutcome::NotActivated)
        ));
        Ok(())
    }
}

/// Real-engine samples by port and monitor mode.
#[derive(Debug)]
struct RealSamples {
    /// `[port][mode]` wall times (ms), modes in `MODES` order.
    ms: Vec<[Vec<f64>; 3]>,
    /// Events one Enabled run of each port sends.
    events: Vec<u64>,
    sent: u64,
    dropped: u64,
}

impl RealSamples {
    fn new(ports: usize) -> Self {
        RealSamples {
            ms: (0..ports).map(|_| Default::default()).collect(),
            events: vec![0; ports],
            sent: 0,
            dropped: 0,
        }
    }
}

/// One classified injection: `(cell index, outcome, latency ms)`.
type Injection = (usize, FaultOutcome, f64);

/// Fisher-Yates shuffle driven by the run's seed.
fn shuffle<T>(rng: &mut SplitMix64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as i64 + 1) as usize);
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Regenerates the three reference files in `dir` from the current
/// program: every campaign cell at every reference seed, the protect
/// ports' sim-engine outputs, and the facts of every compile input.
pub fn write_references(dir: &std::path::Path) -> Result<(), String> {
    use std::fmt::Write as _;
    let write = |name: &str, text: String| {
        std::fs::write(dir.join(name), text).map_err(|e| format!("{name}: {e}"))
    };

    let mut text = String::from("# port model arm seed outcomes (n=not activated d=detected c=crashed h=hung m=masked s=sdc)\n");
    let cells = cells();
    for (p, &b) in CAMPAIGN_PORTS.iter().enumerate() {
        let program = splash_program(b, Size::Test);
        let (image, _) = layers::compile(&program, None)?;
        for cell in cells.iter().filter(|c| c.port == p) {
            let (golden, _) = layers::golden(&image, CAMPAIGN_THREADS, cell.arm, slug(b), None);
            for n in 0..REF_SEEDS {
                let seed = ref_seed(n);
                let round = layers::campaign(
                    &image,
                    &golden,
                    *cell,
                    CAMPAIGN_THREADS,
                    seed,
                    ROUND_INJECTIONS,
                    CAMPAIGN_WORKERS,
                    slug(b),
                    None,
                )?;
                let codes: String = round
                    .outcomes
                    .iter()
                    .map(|&o| layers::outcome_code(o))
                    .collect();
                let _ = writeln!(
                    text,
                    "{} {} {} {seed} {codes}",
                    slug(b),
                    cell.model_name(),
                    cell.arm_name()
                );
            }
        }
    }
    write("campaign.txt", text)?;

    let mut text =
        String::from("# port nthreads outputs digest events steps (sim engine, monitor enabled)\n");
    for b in PROTECT_PORTS {
        let (image, _) = layers::compile(&splash_program(b, Size::Small), None)?;
        let (r, _) = layers::run(
            EngineKind::Sim,
            &image,
            PROTECT_THREADS,
            MonitorMode::Enabled,
            slug(b),
            None,
        );
        if r.outcome != RunOutcome::Completed || !r.violations.is_empty() {
            return Err(format!("{}: reference run ended {:?}", slug(b), r.outcome));
        }
        let _ = writeln!(
            text,
            "{} {PROTECT_THREADS} {} {:016x} {} {}",
            slug(b),
            r.outputs.len(),
            layers::output_digest(&r),
            r.events_sent,
            r.total_steps
        );
    }
    write("protect.txt", text)?;

    let mut text = String::from("# program shared thread_id partial none checked\n");
    let programs = Benchmark::ALL
        .iter()
        .map(|&b| splash_program(b, Size::Reference))
        .chain((0..GEN_POOL).map(gen_program));
    for p in programs {
        let (image, _) = layers::compile(&p, None)?;
        let _ = writeln!(text, "{} {}", p.name, CompileFacts::of(&image).row());
    }
    write("compile.txt", text)
}
