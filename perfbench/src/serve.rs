//! The `serve-mixed` workload: the daemon's request → admission → parse
//! → cache/solve → journal → response path, reads beside writes.
//!
//! The benchmark starts `eatss_serve::start` in-process (two workers, a
//! durable journal with the default `SyncPolicy::Always`) on a journal it
//! pre-populated. Two client connections then run paced closed loops:
//! each sends a request per period, or as soon as its last answer
//! arrives when that is later, so a slow daemon gets less load instead
//! of a growing queue.
//!
//! * the read connection, every [`READ_PERIOD`]: `select` hits on a
//!   pre-warmed hot set (every registry pair at the default
//!   configuration) and, at 4 in 89, inline-`source` selects from a pool
//!   larger than the daemon's 64-entry parse cache;
//! * the write connection, every [`WRITE_PERIOD`]: cold `select` misses
//!   on fresh `n` values (each solves, appends to the journal and
//!   fsyncs) and, at 1 in 11, `pareto` ops on cold keys.
//!
//! Reads and writes meet only inside the daemon, where hits wait on the
//! cache lock the writes hold across every fsync. Latency is timed from
//! send to answer. After the run every distinct key's answer is
//! compared with an in-process computation.

use crate::layers::{self, Registry};
use crate::pairs;
use crate::report::{jstr, peak_rss_mb, Outcome, Quality};
use crate::stats::{mean, median, sliced_tail, SplitMix};
use crate::Ctx;
use eatss::sweep::PAPER_SPLITS;
use eatss::{
    Eatss, EatssConfig, EatssError, JournalConfig, PersistentTileCache, SolveAttempt, SweepOptions,
    SyncPolicy,
};
use eatss_affine::ir::Extent;
use eatss_affine::parser::parse_program;
use eatss_affine::tiling::TileConfig;
use eatss_affine::{ProblemSizes, Program};
use eatss_gpusim::GpuArch;
use eatss_serve::client::SelectArgs;
use eatss_serve::{start, Client, ServerConfig, ServerHandle};
use eatss_trace::json::Json;
use std::collections::{BTreeSet, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A request answered later than this after it was sent misses the
/// limit and does not count toward throughput.
const LATENCY_LIMIT: Duration = Duration::from_millis(250);

/// How long a connection waits for an answer before the request counts
/// as timed out and the connection stops.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(5);

/// The read connection's period: 4000 requests/s, about a third of what
/// the daemon answers back to back on a 2-vCPU host. Back to back, a
/// run's throughput and mean latency followed the host's scheduling,
/// not the daemon (see README.md).
const READ_PERIOD: Duration = Duration::from_micros(250);

/// The write connection's period: 200 requests/s. Writes solve, journal
/// and fsync; pacing them gives every run the same write load, keeps the
/// daemon's cache (and so the process's memory) the same size, and keeps
/// the in-process re-check of every cold key within a few seconds.
const WRITE_PERIOD: Duration = Duration::from_millis(5);

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 11;

/// Tails are taken per slice of this many consecutive requests, and the
/// median slice tail is reported: a stall of the host moves one slice,
/// not the figure, and ten beyond in 200 is the 95th percentile whatever
/// a run's request count.
const TAIL_SLICE: usize = 200;

/// Read traffic: hits, and inline-source selects 4 times in 89.
const INLINE_SHARE_OF_READS: f64 = 4.0 / 89.0;

/// Write traffic: cold misses, and pareto ops once in 11.
const PARETO_SHARE_OF_WRITES: f64 = 1.0 / 11.0;

/// Inline-source pool size: larger than the daemon's 64-entry parse cache.
const INLINE_POOL: usize = 96;

/// Journal entries pre-populated besides the hot set and the inline pool.
const EXTRA_ENTRIES: usize = 2048;

/// Kernels that pareto ops sweep: the registry kernels whose sweep stays
/// within a few milliseconds, so one pareto op cannot stall a worker
/// for the whole latency limit.
const PARETO_KERNELS: [&str; 8] = [
    "gemm",
    "atax",
    "bicg",
    "mvt",
    "gemver",
    "gesummv",
    "jacobi-1d",
    "covariance",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hit,
    Miss,
    Inline,
    Pareto,
}

impl Kind {
    const ALL: [Kind; 4] = [Kind::Hit, Kind::Miss, Kind::Inline, Kind::Pareto];

    fn label(self) -> &'static str {
        match self {
            Kind::Hit => "hit",
            Kind::Miss => "miss",
            Kind::Inline => "inline",
            Kind::Pareto => "pareto",
        }
    }
}

/// A distinct request and what it asks for, so its answer can be
/// recomputed in-process.
struct Key {
    kind: Kind,
    args: SelectArgs,
    program: Rc<Program>,
    sizes: ProblemSizes,
}

/// Every size parameter of `program` set to `n`, as the daemon binds
/// inline sources.
fn uniform_sizes(program: &Program, n: i64) -> ProblemSizes {
    let params: BTreeSet<&str> = program
        .kernels
        .iter()
        .flat_map(|k| &k.dims)
        .filter_map(|d| match &d.extent {
            Extent::Param(p) => Some(p.as_str()),
            Extent::Const(_) => None,
        })
        .collect();
    ProblemSizes::uniform(params, n)
}

/// The run's inputs: distinct keys and a source of fresh sizes.
struct Inputs {
    keys: Vec<Key>,
    hot: Vec<usize>,
    inline: Vec<usize>,
    extra: Vec<usize>,
    fresh_n: Vec<i64>,
    rng: SplitMix,
    /// Registry programs, parsed once and shared by every key on them.
    registry: Vec<(eatss_kernels::Benchmark, Rc<Program>)>,
}

impl Inputs {
    fn new(seed: u64) -> Inputs {
        let mut rng = SplitMix::new(seed, 0x5345_5256);
        let mut fresh_n: Vec<i64> = (256..40_256).collect();
        rng.shuffle(&mut fresh_n);
        let registry = eatss_kernels::all()
            .into_iter()
            .map(|b| {
                let program = Rc::new(b.program().expect("registry sources parse"));
                (b, program)
            })
            .collect();
        let mut inputs = Inputs {
            keys: Vec::new(),
            hot: Vec::new(),
            inline: Vec::new(),
            extra: Vec::new(),
            fresh_n,
            rng,
            registry,
        };
        for pair in pairs::registry(seed) {
            let (kernel, dataset) = pair.label.split_once('/').expect("label is name/dataset");
            let args = SelectArgs {
                dataset: Some(dataset.to_string()),
                ..SelectArgs::kernel(kernel)
            };
            let k = inputs.push(Kind::Hit, args, Rc::new(pair.program), pair.sizes);
            inputs.hot.push(k);
        }
        for i in 0..INLINE_POOL {
            let source = inputs.registry[inputs.rng.below(inputs.registry.len())]
                .0
                .source;
            let source = format!("// client {i}\n{source}");
            let program = parse_program(&source).expect("registry sources parse");
            let n = [64, 96, 128, 192][inputs.rng.below(4)];
            let sizes = uniform_sizes(&program, n);
            let args = SelectArgs {
                source: Some(source),
                n: Some(n),
                ..SelectArgs::default()
            };
            let k = inputs.push(Kind::Inline, args, Rc::new(program), sizes);
            inputs.inline.push(k);
        }
        for _ in 0..EXTRA_ENTRIES {
            let key = inputs.cold(Kind::Miss);
            inputs.extra.push(key);
        }
        inputs
    }

    fn push(
        &mut self,
        kind: Kind,
        args: SelectArgs,
        program: Rc<Program>,
        sizes: ProblemSizes,
    ) -> usize {
        self.keys.push(Key {
            kind,
            args,
            program,
            sizes,
        });
        self.keys.len() - 1
    }

    /// A key nobody has asked for yet: a fresh `n` on a registry kernel.
    fn cold(&mut self, kind: Kind) -> usize {
        let n = self
            .fresh_n
            .pop()
            .expect("the fresh size pool outlasts a run");
        let index = if kind == Kind::Pareto {
            let name = PARETO_KERNELS[self.rng.below(PARETO_KERNELS.len())];
            self.registry
                .iter()
                .position(|(b, _)| b.name == name)
                .expect("registered kernel")
        } else {
            self.rng.below(self.registry.len())
        };
        let (bench, program) = &self.registry[index];
        let args = SelectArgs {
            n: Some(n),
            pareto: kind == Kind::Pareto,
            ..SelectArgs::kernel(bench.name)
        };
        let (program, sizes) = (Rc::clone(program), bench.sizes_uniform(n));
        self.push(kind, args, program, sizes)
    }

    /// The write connection's requests for a run of `seconds`: as many
    /// cold keys as it can send, each a miss or, now and then, a pareto
    /// op.
    fn writes(&mut self, seconds: f64) -> Vec<usize> {
        let most = (seconds / WRITE_PERIOD.as_secs_f64()) as usize + 1;
        (0..most)
            .map(|_| {
                if self.rng.unit() < PARETO_SHARE_OF_WRITES {
                    self.cold(Kind::Pareto)
                } else {
                    self.cold(Kind::Miss)
                }
            })
            .collect()
    }

    /// Every key's request line.
    fn lines(&self) -> Vec<String> {
        self.keys.iter().map(|k| k.args.to_line() + "\n").collect()
    }
}

/// One request, kept small: a closed loop sends hundreds of thousands,
/// and the benchmark's own memory should grow little with the daemon's
/// speed.
#[derive(Clone, Copy)]
struct Exchange {
    /// Index into the conversation's distinct (key, reply) pairs.
    pair: u32,
    latency_ms: f32,
}

/// One connection's requests in send order.
#[derive(Default)]
struct Conversation {
    list: Vec<Exchange>,
    /// Distinct (key, reply) pairs; the reply is `None` when no answer
    /// came within [`ANSWER_TIMEOUT`].
    pairs: Vec<(usize, Option<Reply>)>,
    /// Write connection only: reads sent before each write, which
    /// places the write in the read stream.
    reads_before: Vec<usize>,
    /// Σ daemon-side and Σ client-side latency (ms) over the answers
    /// that report the daemon's.
    server_ms: f64,
    client_ms: f64,
}

/// The daemon's cache tag on an answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Cache {
    Hit,
    Miss,
    None,
}

/// The parts of a daemon answer the benchmark judges.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Reply {
    status: String,
    cache: Cache,
    /// The selection or front, for `ok` and `infeasible` answers.
    answer: Option<Answer>,
    /// Pareto answers: measured points that were not fallbacks.
    solved_points: i64,
}

fn tiles_of(json: &Json) -> Option<Vec<i64>> {
    json.as_array()?
        .iter()
        .map(|t| t.as_f64().map(|v| v as i64))
        .collect()
}

impl Reply {
    fn parse(json: &Json) -> Reply {
        let text = |f: &str| {
            json.get(f)
                .and_then(Json::as_str)
                .unwrap_or("none")
                .to_string()
        };
        let number = |f: &str| json.get(f).and_then(Json::as_f64).unwrap_or(0.0) as i64;
        let status = text("status");
        let answer = match status.as_str() {
            "infeasible" => Some(Answer::Tiles(None)),
            "ok" => match json.get("front").and_then(Json::as_array) {
                Some(front) => front
                    .iter()
                    .map(|p| p.get("tiles").and_then(tiles_of))
                    .collect::<Option<Vec<_>>>()
                    .map(Answer::Front),
                None => json
                    .get("tiles")
                    .and_then(tiles_of)
                    .map(|t| Answer::Tiles(Some(t))),
            },
            _ => None,
        };
        let cache = match json.get("cache").and_then(Json::as_str) {
            Some("hit") => Cache::Hit,
            Some("miss") => Cache::Miss,
            _ => Cache::None,
        };
        Reply {
            cache,
            answer,
            solved_points: number("points") - number("infeasible"),
            status,
        }
    }
}

impl Conversation {
    /// Records one request, `json` being its answer if one came.
    fn record(
        &mut self,
        interned: &mut HashMap<(usize, Option<Reply>), u32>,
        key: usize,
        latency_ms: f64,
        json: Option<&Json>,
    ) {
        if let Some(server) = json
            .and_then(|j| j.get("latency_ms"))
            .and_then(Json::as_f64)
        {
            self.server_ms += server;
            self.client_ms += latency_ms;
        }
        let pair = *interned
            .entry((key, json.map(Reply::parse)))
            .or_insert_with_key(|p| {
                self.pairs.push(p.clone());
                (self.pairs.len() - 1) as u32
            });
        self.list.push(Exchange {
            pair,
            latency_ms: latency_ms as f32,
        });
    }
}

/// Waits until `due`: sleeps until shortly before it, then yields, so a
/// send is not delayed by waking an idle virtual CPU.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(500);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// A paced closed loop on one connection: sends `next()`'s request,
/// waits for the answer, and sends the next one `period` after the last
/// send, or at once when the answer came later. Runs until `until` or
/// until an answer does not come. The read connection counts its
/// requests in `reads`; the write connection notes that count at each
/// send.
fn converse(
    addr: SocketAddr,
    lines: &[String],
    mut next: impl FnMut() -> usize,
    period: Duration,
    until: Instant,
    reads: (&AtomicUsize, bool),
) -> std::io::Result<Conversation> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(ANSWER_TIMEOUT))?;
    let mut out = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut done = Conversation::default();
    let mut interned = HashMap::new();
    let (read_count, is_reader) = reads;
    let mut due = Instant::now();
    while due < until {
        wait_until(due);
        let key = next();
        if is_reader {
            read_count.fetch_add(1, Ordering::Relaxed);
        } else {
            done.reads_before.push(read_count.load(Ordering::Relaxed));
        }
        let sent = Instant::now();
        out.write_all(lines[key].as_bytes())?;
        line.clear();
        let answered =
            matches!(reader.read_line(&mut line), Ok(n) if n > 0 && line.ends_with('\n'));
        let json = Json::parse(line.trim_end()).ok();
        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
        done.record(&mut interned, key, latency_ms, json.as_ref());
        if !answered {
            // The framing is lost with the answer.
            return Ok(done);
        }
        // A late answer moves the schedule instead of causing a burst.
        due = (sent + period).max(Instant::now());
    }
    Ok(done)
}

/// Runs the read and the write loop side by side for `seconds`.
fn drive(
    addr: SocketAddr,
    inputs: &mut Inputs,
    seconds: f64,
) -> Result<(Conversation, Conversation), String> {
    let writes = inputs.writes(seconds);
    let lines = inputs.lines();
    let mut rng = SplitMix::new(inputs.rng.next_u64(), 0x5245_4144);
    let (hot, inline) = (&inputs.hot, &inputs.inline);
    let mut next_write = writes.iter().copied();
    let until = Instant::now() + Duration::from_secs_f64(seconds);
    let (lines, read_count) = (&lines, &AtomicUsize::new(0));
    let (reads, writes) = std::thread::scope(|s| {
        let reads = s.spawn(move || {
            let next = || {
                if rng.unit() < INLINE_SHARE_OF_READS {
                    inline[rng.below(inline.len())]
                } else {
                    hot[rng.below(hot.len())]
                }
            };
            converse(addr, lines, next, READ_PERIOD, until, (read_count, true))
        });
        let writes = converse(
            addr,
            lines,
            || {
                next_write
                    .next()
                    .expect("more cold keys than a run can send")
            },
            WRITE_PERIOD,
            until,
            (read_count, false),
        );
        (reads.join().expect("read loop"), writes)
    });
    Ok((
        reads.map_err(|e| format!("read loop: {e}"))?,
        writes.map_err(|e| format!("write loop: {e}"))?,
    ))
}

/// The in-process answer to a key: selected tiles (`None` when
/// infeasible) for selects, the front's tiles for pareto ops.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Answer {
    Tiles(Option<Vec<i64>>),
    Front(Vec<Vec<i64>>),
}

fn expected(eatss: &Eatss, key: &Key) -> Result<Answer, String> {
    let config = EatssConfig::default();
    if key.kind == Kind::Pareto {
        // The daemon's pareto policy: one rung at its default deadline.
        let options = SweepOptions {
            attempts: vec![SolveAttempt {
                node_limit: 2_000_000,
                deadline: Some(ServerConfig::default().default_deadline),
                coarsen: false,
            }],
            fallback_to_default: true,
            jobs: 1,
            warm_start: true,
        };
        let outcome = eatss
            .sweep_with(
                &key.program,
                &key.sizes,
                &PAPER_SPLITS,
                &[config.warp_fraction],
                &options,
            )
            .map_err(|e| e.to_string())?;
        return Ok(Answer::Front(
            outcome
                .pareto_front()
                .iter()
                .map(|p| p.solution.tiles.sizes().to_vec())
                .collect(),
        ));
    }
    match eatss.select_tiles(&key.program, &key.sizes, &config) {
        Ok(s) => Ok(Answer::Tiles(Some(s.tiles.sizes().to_vec()))),
        Err(EatssError::Unsatisfiable { .. }) => Ok(Answer::Tiles(None)),
        Err(e) => Err(e.to_string()),
    }
}

/// Checks one answer against the in-process computation of its key.
/// `Some(reason)` when the answer is wrong or missing.
fn judge(reply: Option<&Reply>, want: &Result<Answer, String>) -> Option<String> {
    let Some(reply) = reply else {
        return Some("timeout: no answer".into());
    };
    match (&reply.answer, want) {
        (None, _) => Some(format!("status {}", reply.status)),
        (_, Err(e)) => Some(format!("in-process recomputation failed: {e}")),
        (Some(got), Ok(want)) if got != want => Some(format!("served {got:?}, expected {want:?}")),
        _ => None,
    }
}

/// A finished run, judged.
#[derive(Default)]
struct Judged {
    /// Latency (ms) of every request, reads and writes merged in send
    /// order; a failed or refused request counts as past the limit.
    all: Vec<f32>,
    /// The same for select hits, and the misses' latencies.
    hits: Vec<f32>,
    misses: Vec<f32>,
    /// Requests answered correctly within the limit.
    good: usize,
    /// Requests per [`Kind`], in [`Kind::ALL`] order.
    kinds: [usize; 4],
    /// Σ daemon-side and Σ client-side latency, in ms.
    server_ms: f64,
    client_ms: f64,
    /// Σ over pareto answers of (points − infeasible).
    pareto_solved: f64,
}

impl Judged {
    fn count(&self, kind: Kind) -> f64 {
        self.kinds[kind as usize] as f64
    }
}

/// Judges every distinct (key, reply) pair of both connections once,
/// against the in-process answer, then every request.
fn judge_all(
    (reads, writes): (Conversation, Conversation),
    inputs: &Inputs,
    expect: &mut HashMap<usize, Result<Answer, String>>,
    eatss: &Eatss,
    o: &mut Outcome,
) -> Judged {
    let limit_ms = LATENCY_LIMIT.as_secs_f64() * 1e3;
    let verdicts = |c: &Conversation, expect: &mut HashMap<usize, Result<Answer, String>>| {
        c.pairs
            .iter()
            .map(|(k, reply)| {
                let key = &inputs.keys[*k];
                let want = expect.entry(*k).or_insert_with(|| expected(eatss, key));
                judge(reply.as_ref(), want)
                    .map(|r| format!("request {} ({}): {r}", key.args.to_line(), key.kind.label()))
            })
            .collect::<Vec<_>>()
    };
    let read_verdicts = verdicts(&reads, expect);
    let write_verdicts = verdicts(&writes, expect);
    let mut j = Judged {
        server_ms: reads.server_ms + writes.server_ms,
        client_ms: reads.client_ms + writes.client_ms,
        ..Judged::default()
    };
    let mut record = |c: &Conversation, verdicts: &[Option<String>], x: &Exchange| {
        let (k, reply) = &c.pairs[x.pair as usize];
        let kind = inputs.keys[*k].kind;
        let verdict = &verdicts[x.pair as usize];
        let latency_ms = f64::from(x.latency_ms);
        let latency = if verdict.is_none() {
            x.latency_ms
        } else {
            x.latency_ms.max(limit_ms as f32)
        };
        j.all.push(latency);
        j.good += usize::from(verdict.is_none() && latency_ms <= limit_ms);
        j.kinds[kind as usize] += 1;
        match (kind, reply.as_ref().map(|r| r.cache)) {
            (Kind::Pareto, _) => {}
            (_, Some(Cache::Hit)) => j.hits.push(latency),
            (_, Some(Cache::Miss)) => j.misses.push(latency),
            _ => {}
        }
        j.pareto_solved += reply.as_ref().map_or(0.0, |r| r.solved_points as f64);
        o.tally.record(verdict.clone());
    };
    let mut w = 0;
    for (i, x) in reads.list.iter().enumerate() {
        while w < writes.list.len() && writes.reads_before[w] <= i {
            record(&writes, &write_verdicts, &writes.list[w]);
            w += 1;
        }
        record(&reads, &read_verdicts, x);
    }
    for x in &writes.list[w..] {
        record(&writes, &write_verdicts, x);
    }
    j
}

/// Scrapes the daemon's `metrics` op.
fn scrape(client: &mut Client) -> Result<Registry, String> {
    let response = client.metrics().map_err(|e| format!("metrics op: {e}"))?;
    let metrics = response
        .get("metrics")
        .ok_or("metrics op answered without metrics")?;
    Ok(Registry::from_json(metrics))
}

/// Starts the daemon on the pre-populated journal and warms the hot set
/// until every hot key hits. Returns the daemon, a client, and the hot
/// set's answers.
fn set_up(
    config: &ServerConfig,
    inputs: &Inputs,
    o: &mut Outcome,
) -> Result<(ServerHandle, Client, Vec<Json>), String> {
    let handle = start(config.clone()).map_err(|e| format!("start: {e}"))?;
    let addr = handle.tcp_addr().ok_or("daemon has no tcp address")?;
    let mut client = Client::connect_tcp(&addr.to_string()).map_err(|e| format!("connect: {e}"))?;
    let mut answers = Vec::with_capacity(inputs.hot.len());
    for &k in &inputs.hot {
        let key = &inputs.keys[k];
        let mut answer = None;
        for _ in 0..3 {
            let r = client
                .select(&key.args)
                .map_err(|e| format!("warm-up select: {e}"))?;
            let hit = r.get("cache").and_then(Json::as_str) == Some("hit");
            answer = Some(r);
            if hit {
                break;
            }
        }
        let answer = answer.expect("at least one attempt");
        if answer.get("cache").and_then(Json::as_str) != Some("hit") {
            o.tally.fail(format!(
                "hot key {} never hit after replay",
                key.args.to_line()
            ));
        }
        answers.push(answer);
    }
    Ok((handle, client, answers))
}

/// Energy and PPW of the tiles the daemon serves for the hot set,
/// relative to `32^d`, geomean over feasible keys.
fn quality(eatss: &Eatss, inputs: &Inputs, answers: &[Json], o: &mut Outcome) {
    let config = EatssConfig::default();
    let mut quality = Quality::default();
    for (&k, answer) in inputs.hot.iter().zip(answers) {
        let Some(tiles) = answer.get("tiles").and_then(tiles_of) else {
            continue;
        };
        let key = &inputs.keys[k];
        let chosen = eatss
            .evaluate(&key.program, &TileConfig::new(tiles), &key.sizes, &config)
            .map_err(|e| format!("evaluate: {e}"))
            .and_then(|c| quality.add(eatss, &key.program, &key.sizes, &config, &c));
        if let Err(e) = chosen {
            o.tally.fail(format!("{}: {e}", key.args.to_line()));
        }
    }
    quality.report(o, "feasible_hot_keys");
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let eatss = Eatss::new(GpuArch::ga100());
    let mut inputs = Inputs::new(ctx.seed);

    // Pre-populate the journal the daemon replays at start, with one
    // fsync at the end instead of one per entry.
    let journal = ctx.work_dir.join("journal");
    {
        let unsynced = JournalConfig {
            sync: SyncPolicy::Never,
            ..JournalConfig::default()
        };
        let mut cache = PersistentTileCache::open(&journal, GpuArch::ga100(), unsynced)
            .map_err(|e| format!("journal: {e}"))?;
        let config = EatssConfig::default();
        for &k in inputs.hot.iter().chain(&inputs.inline).chain(&inputs.extra) {
            let key = &inputs.keys[k];
            let _ = cache.select(&key.program, &key.sizes, &config);
        }
        cache.flush().map_err(|e| format!("journal flush: {e}"))?;
    }
    let config = ServerConfig {
        cache_dir: Some(journal),
        workers: 2,
        ..ServerConfig::default()
    };

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut daemon: Option<(ServerHandle, Client, Vec<Json>)> = None;
    for _ in 0..SETUPS {
        if let Some((handle, client, _)) = daemon.take() {
            drop(client);
            handle.shutdown();
        }
        let started = Instant::now();
        let up = set_up(&config, &inputs, &mut o)?;
        setup_s.push(started.elapsed().as_secs_f64());
        daemon = Some(up);
    }
    let (handle, mut client, hot_answers) = daemon.expect("at least one set-up");
    let addr = handle.tcp_addr().ok_or("daemon has no tcp address")?;

    let mut expect: HashMap<usize, Result<Answer, String>> = HashMap::new();
    // Answers are recomputed in-process only after a half is sent and
    // scraped, with collection off, so the checks neither compete with
    // the daemon nor add to its counters.
    let mut judge_half = |half, inputs: &Inputs, o: &mut Outcome| {
        eatss_trace::stop_collecting();
        judge_all(half, inputs, &mut expect, &eatss, o)
    };

    let (window_s, j) = if ctx.traced {
        let half = drive(addr, &mut inputs, ctx.seconds / 2.0)?;
        let untraced = judge_half(half, &inputs, &mut o);
        // Reset the registry so the scrape covers the traced half only.
        eatss_trace::start_collecting();
        let before = scrape(&mut client)?;
        let half = drive(addr, &mut inputs, ctx.seconds / 2.0)?;
        let after = scrape(&mut client)?;
        let traced = judge_half(half, &inputs, &mut o);
        let requests = traced.all.len() as f64;
        layers::smt(&mut o, &after, requests);
        o.set("smt.maximize_us.p50", after.p50("smt.maximize_us"));
        o.set("smt.maximize_us.p99", after.p99("smt.maximize_us"));
        layers::sweep(
            &mut o,
            &after,
            traced.pareto_solved,
            traced.count(Kind::Pareto),
        );
        o.set("serve.queue_us.p99", after.p99("serve.queue_us"));
        o.set(
            "serve.journal_append_us.p99",
            after.p99("serve.journal_append_us"),
        );
        o.set("serve.solve_us.p50", after.p50("serve.solve_us"));
        o.set("serve.parse_us.p50", after.p50("serve.parse_us"));
        o.set(
            "parse.cache_hit_ratio",
            layers::ratio(
                after.counter("parse.cache_hits"),
                traced.count(Kind::Inline),
            ),
        );
        let selects = requests - traced.count(Kind::Pareto);
        o.set(
            "cache.hit_ratio",
            layers::ratio(traced.hits.len() as f64, selects),
        );
        o.set(
            "serve.coalesced",
            after.gauge("serve.coalesced") - before.gauge("serve.coalesced"),
        );
        o.set(
            "serve.shed",
            after.gauge("serve.shed") - before.gauge("serve.shed"),
        );
        o.set("journal.bytes", after.gauge("journal.bytes"));
        o.set(
            "journal.auto_compactions",
            after.counter("journal.auto_compactions"),
        );
        o.set(
            "trace.overhead_ratio",
            mean(&traced.all) / mean(&untraced.all),
        );
        o.set(
            "trace.unattributed_share",
            1.0 - layers::ratio(traced.server_ms, traced.client_ms),
        );
        (ctx.seconds / 2.0, traced)
    } else {
        let half = drive(addr, &mut inputs, ctx.seconds)?;
        (ctx.seconds, judge_half(half, &inputs, &mut o))
    };
    drop(client);
    let stats = handle.shutdown();

    o.set("throughput_ops_s", j.good as f64 / window_s);
    o.set("latency_p50_ms", median(&j.all));
    o.set_tail("latency_tail_ms", &sliced_tail(&j.all, TAIL_SLICE));
    o.set_tail("hit_latency_tail_ms", &sliced_tail(&j.hits, TAIL_SLICE));
    o.set("miss_latency_p50_ms", median(&j.misses));
    o.set("setup_s", median(&setup_s));
    o.detail("setups_s", format!("{setup_s:?}"));
    o.set("peak_rss_mb", peak_rss_mb());
    quality(&eatss, &inputs, &hot_answers, &mut o);

    let per_kind: Vec<String> = Kind::ALL
        .iter()
        .map(|&k| format!("\"{}\":{}", k.label(), j.count(k)))
        .collect();
    o.detail(
        "write_period_ms",
        (WRITE_PERIOD.as_secs_f64() * 1e3).to_string(),
    );
    o.detail(
        "latency_limit_ms",
        (LATENCY_LIMIT.as_secs_f64() * 1e3).to_string(),
    );
    o.detail("requests", format!("{{{}}}", per_kind.join(",")));
    o.detail("within_limit", j.good.to_string());
    o.detail(
        "server",
        format!(
            "{{\"requests\":{},\"ok\":{},\"infeasible\":{},\"errors\":{},\"shed\":{},\"coalesced\":{}}}",
            stats.requests, stats.ok, stats.infeasible, stats.errors, stats.shed, stats.coalesced
        ),
    );
    o.detail(
        "journal_entries_prepopulated",
        jstr(&format!(
            "{} hot + {} inline + {} extra",
            inputs.hot.len(),
            inputs.inline.len(),
            inputs.extra.len()
        )),
    );
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(line: &str) -> Reply {
        Reply::parse(&Json::parse(line).expect("test answers are JSON"))
    }

    #[test]
    fn answers_parse_into_replies() {
        let r = reply(r#"{"status":"ok","tiles":[32,16],"cache":"hit","latency_ms":0.05}"#);
        assert_eq!(r.answer, Some(Answer::Tiles(Some(vec![32, 16]))));
        assert_eq!(r.cache, Cache::Hit);
        let r = reply(r#"{"status":"infeasible","reason":"x","cache":"miss"}"#);
        assert_eq!(
            (r.answer, r.cache),
            (Some(Answer::Tiles(None)), Cache::Miss)
        );
        let r = reply(
            r#"{"status":"ok","front":[{"tiles":[1,2]},{"tiles":[3,4]}],"points":6,"infeasible":2}"#,
        );
        assert_eq!(r.answer, Some(Answer::Front(vec![vec![1, 2], vec![3, 4]])));
        assert_eq!(r.solved_points, 4);
        let r = reply(r#"{"status":"overloaded","retry_after_ms":5}"#);
        assert_eq!((r.answer, r.cache), (None, Cache::None));
    }

    #[test]
    fn a_wrong_tile_is_a_counted_failure() {
        let want = Ok(Answer::Tiles(Some(vec![32, 16])));
        let right = reply(r#"{"status":"ok","tiles":[32,16]}"#);
        let wrong = reply(r#"{"status":"ok","tiles":[32,32]}"#);
        let refused = reply(r#"{"status":"overloaded"}"#);
        let mut tally = crate::stats::Tally::default();
        for r in [Some(&right), Some(&wrong), Some(&refused), None] {
            tally.record(judge(r, &want));
        }
        assert_eq!((tally.attempted, tally.failed), (4, 3));
        assert!(tally.reasons[0].starts_with("served"));
        assert_eq!(tally.reasons[1], "status overloaded");
        assert!(tally.reasons[2].starts_with("timeout"));
        // An infeasible answer is right only when the formulation is.
        let infeasible = reply(r#"{"status":"infeasible"}"#);
        assert!(judge(Some(&infeasible), &want).is_some());
        assert!(judge(Some(&infeasible), &Ok(Answer::Tiles(None))).is_none());
    }

    #[test]
    fn writes_follow_the_seed_and_the_mix() {
        let lines = |seed| {
            let mut inputs = Inputs::new(seed);
            let writes = inputs.writes(4.0);
            let lines = inputs.lines();
            writes.iter().map(|&k| lines[k].clone()).collect::<Vec<_>>()
        };
        let (a, b) = (lines(1), lines(2));
        assert_eq!(a, lines(1));
        assert_ne!(a, b);
        assert_eq!(a.len(), 801, "one cold key per period, and one more");
        let pareto = a.iter().filter(|l| l.contains("pareto")).count() as f64;
        let share = pareto / a.len() as f64;
        assert!(
            (share - PARETO_SHARE_OF_WRITES).abs() < 0.03,
            "pareto share {share}"
        );
        let inputs = Inputs::new(1);
        assert!(inputs.hot.iter().all(|&k| inputs.keys[k].kind == Kind::Hit));
        assert!(
            inputs.inline.len() > 64,
            "the inline pool must exceed the parse cache"
        );
    }
}
