//! `served_mix`: an in-process `Server` and one client in a closed loop (a
//! caller that waits for each reply before sending the next request),
//! working through a seeded schedule of short statements with a writer
//! beside the readers.
//!
//! The median statement takes a fraction of a millisecond, so the wire, the
//! hand-off to the worker pool, the shared plan cache and row encoding
//! dominate — the layers the three batch workloads bypass. Ad-hoc scans draw
//! on more distinct texts than the plan cache holds (misses and evictions);
//! the `EXCEPT`-over-`UNION` statement shares lineage between its operands,
//! the only statement of the benchmark that needs Shannon expansion; and
//! every 50th request reloads the snapshot, which bumps the schema epoch
//! and invalidates every cached plan — a read-path gain bought with
//! per-epoch work shows up as the writer's cost.

use crate::cal::{median, RefKernel, XorShift};
use crate::data::{cold_catalog, snapshot_path, Input};
use crate::ladder::{join_rungs, lineage_rungs, window_rungs, Ladder};
use crate::run::{cold_setups, Config, Sample, SetupReport, Workload};
use crate::trace::Tracer;
use std::path::PathBuf;
use std::time::Instant;
use tpdb_core::{ThetaCondition, TpJoinKind};
use tpdb_query::{parse_query, plan_query_with, snapshot_summary, QueryOptions, Session};
use tpdb_server::{protocol, Client, Rows, Server, ServerConfig, ServerHandle};
use tpdb_storage::{TpRelation, Value};

const METRICS: u64 = 40;
/// Ad-hoc texts per metric: 40 × 32 = 1280 distinct statements, more than
/// the 8 × 64 plans the server's sharded cache holds.
const ADHOC_VARIANTS: u64 = 32;
/// Every this-many-th request is the writer.
const LOAD_EVERY: u64 = 50;

const DRILL: &str = "SELECT * FROM meteo_r WHERE Metric = $1";
const SMALL_JOIN: &str = "SELECT * FROM small_r TP LEFT JOIN small_s \
                          ON small_r.Metric = small_s.Metric WHERE Metric = $1";
const ANTI: &str = "SELECT * FROM webkit_r TP ANTI JOIN webkit_s ON webkit_r.Key = webkit_s.Key";
const CHAIN: &str =
    "(SELECT * FROM small_r UNION SELECT * FROM small_s) EXCEPT SELECT * FROM small_r";

#[derive(Debug, Clone, Copy)]
enum Request {
    /// 60 %: `EXECUTE drill(metric)`, a 50-row scan.
    Drill(u64),
    /// 20 %: `EXECUTE small_join(metric)`.
    SmallJoin(u64),
    /// 10 %: an ad-hoc scan, by index into the texts.
    AdHoc(u64),
    /// 5 %: the webkit anti join.
    Anti,
    /// 5 %: the shared-lineage set-operation chain.
    Chain,
    /// The writer: `LOAD SNAPSHOT` of the same data.
    Load,
}

fn schedule(seed: u64, len: u64) -> Vec<Request> {
    let mut rng = XorShift::new(seed);
    (1..=len)
        .map(|k| {
            if k % LOAD_EVERY == 0 {
                return Request::Load;
            }
            match rng.below(100) {
                0..=59 => Request::Drill(rng.below(METRICS)),
                60..=79 => Request::SmallJoin(rng.below(METRICS)),
                80..=89 => Request::AdHoc(rng.below(METRICS * ADHOC_VARIANTS)),
                90..=94 => Request::Anti,
                _ => Request::Chain,
            }
        })
        .collect()
}

fn adhoc_text(index: u64) -> String {
    // The second predicate holds for every station: the variants differ in
    // text (so in plan-cache key), not in answer.
    format!(
        "SELECT * FROM small_r WHERE Metric = {} AND Station < {}",
        index % METRICS,
        1000 + index / METRICS
    )
}

fn rendered(relation: &TpRelation) -> Rows {
    Rows {
        schema: protocol::render_schema(relation.schema()),
        rows: protocol::render_relation_rows(relation),
    }
}

/// The replies an in-process session gives, rendered as the wire renders.
struct Replies {
    drill: Vec<Rows>,
    small_join: Vec<Rows>,
    adhoc: Vec<Rows>,
    anti: Rows,
    chain: Rows,
    load: Rows,
}

impl Replies {
    fn compute(session: &Session) -> Result<Self, String> {
        let per_metric = |text: &str| -> Result<Vec<Rows>, String> {
            (0..METRICS)
                .map(|m| {
                    session
                        .execute_with(text, &[Value::Int(m as i64)])
                        .map(|rel| rendered(&rel))
                        .map_err(|e| format!("oracle `{text}`: {e}"))
                })
                .collect()
        };
        let plain = |text: &str| {
            session
                .execute(text)
                .map(|rel| rendered(&rel))
                .map_err(|e| format!("oracle `{text}`: {e}"))
        };
        Ok(Self {
            drill: per_metric(DRILL)?,
            small_join: per_metric(SMALL_JOIN)?,
            adhoc: (0..METRICS)
                .map(|m| plain(&adhoc_text(m)))
                .collect::<Result<_, _>>()?,
            anti: plain(ANTI)?,
            chain: plain(CHAIN)?,
            load: snapshot_summary(session.catalog())
                .map(|rel| rendered(&rel))
                .map_err(|e| e.to_string())?,
        })
    }
}

struct Served {
    server: ServerHandle,
    client: Client,
}

struct ServedWorkload {
    served: Served,
    /// In-process session over the same catalog: the oracle's path and the
    /// ladder's "without the server" side.
    session: Session,
    schedule: Vec<Request>,
    adhoc_texts: Vec<String>,
    load_line: String,
    replies: Replies,
    snapshot: PathBuf,
    round: u64,
}

impl Drop for ServedWorkload {
    fn drop(&mut self) {
        drop(std::fs::remove_file(&self.snapshot));
    }
}

fn send(
    client: &mut Client,
    request: Request,
    adhoc_texts: &[String],
    load_line: &str,
) -> Result<Rows, String> {
    let metric = |m: u64| [Value::Int(m as i64)];
    match request {
        Request::Drill(m) => client.execute("drill", &metric(m)),
        Request::SmallJoin(m) => client.execute("small_join", &metric(m)),
        Request::AdHoc(i) => client.query(&adhoc_texts[i as usize]),
        Request::Anti => client.query(ANTI),
        Request::Chain => client.query(CHAIN),
        Request::Load => client.query(load_line),
    }
    .map_err(|e| e.to_string())
}

pub fn build(
    config: &Config,
    kernel: &mut RefKernel,
) -> Result<(Box<dyn Workload>, SetupReport), String> {
    let scale = if config.smoke { 5 } else { 1 };
    let seed = config.seed.wrapping_mul(64);
    let (meteo_r, meteo_s) = tpdb_datagen::meteo_like(2000 / scale, seed);
    let (small_r, small_s) = tpdb_datagen::meteo_like(400, seed + 2);
    let (webkit_r, webkit_s) = tpdb_datagen::webkit_like(1000 / scale, seed + 4);
    let inputs = [
        Input::new("meteo_r", &meteo_r),
        Input::new("meteo_s", &meteo_s),
        Input::new("small_r", &small_r),
        Input::new("small_s", &small_s),
        Input::new("webkit_r", &webkit_r),
        Input::new("webkit_s", &webkit_s),
    ];
    let snapshot = snapshot_path(&config.workload)?;
    let load_line = format!("LOAD SNAPSHOT '{}'", snapshot.display());
    let adhoc_texts: Vec<String> = (0..METRICS * ADHOC_VARIANTS).map(adhoc_text).collect();

    let built = cold_setups(kernel, || {
        let (catalog, times) = cold_catalog(&inputs, &snapshot)?;
        let oracle_catalog = catalog.clone();
        let server = Server::start(
            catalog,
            // One worker: the engine gets one core, the load generator and
            // the neighbours share the other.
            ServerConfig {
                workers: 1,
                queue_depth: 16,
                parallelism: 1,
            },
        )
        .map_err(|e| format!("server start: {e}"))?;
        let mut client =
            Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        client
            .prepare("drill", DRILL)
            .map_err(|e| format!("prepare drill: {e}"))?;
        client
            .prepare("small_join", SMALL_JOIN)
            .map_err(|e| format!("prepare small_join: {e}"))?;
        // First execution of each statement shape.
        let shapes = [
            Request::Drill(0),
            Request::SmallJoin(0),
            Request::AdHoc(0),
            Request::Anti,
            Request::Chain,
        ];
        for shape in shapes {
            send(&mut client, shape, &adhoc_texts, &load_line)?;
        }
        Ok(((Served { server, client }, oracle_catalog), times))
    });
    let ((served, oracle_catalog), setup) = match built {
        Ok(built) => built,
        Err(e) => {
            drop(std::fs::remove_file(&snapshot));
            return Err(e);
        }
    };

    let mut session = Session::new(oracle_catalog);
    session.set_parallelism(1);
    let replies = Replies::compute(&session)?;
    let round = if config.smoke {
        2 * LOAD_EVERY
    } else {
        10 * LOAD_EVERY
    };
    let workload = ServedWorkload {
        served,
        session,
        schedule: schedule(config.seed, 200 * LOAD_EVERY),
        adhoc_texts,
        load_line,
        replies,
        snapshot,
        round,
    };
    Ok((Box::new(workload), setup))
}

impl Workload for ServedWorkload {
    fn round(&self) -> u64 {
        self.round
    }

    fn classes(&self) -> u64 {
        // The mix is the workload: one distribution over all requests.
        1
    }

    fn tail_quantile(&self) -> f64 {
        0.99
    }

    fn op(&mut self, i: u64, _full: bool, tracer: &mut Tracer) -> Result<Sample, String> {
        let request = self.schedule[(i % self.schedule.len() as u64) as usize];
        let span = tracer.begin("server.request", i);
        let started = Instant::now();
        let reply = send(
            &mut self.served.client,
            request,
            &self.adhoc_texts,
            &self.load_line,
        );
        let ms = started.elapsed().as_secs_f64() * 1e3;
        tracer.end(span);
        let reply = reply?;
        // Byte for byte against the in-process session, on every reply.
        let want = match request {
            Request::Drill(m) => &self.replies.drill[m as usize],
            Request::SmallJoin(m) => &self.replies.small_join[m as usize],
            Request::AdHoc(i) => &self.replies.adhoc[(i % METRICS) as usize],
            Request::Anti => &self.replies.anti,
            Request::Chain => &self.replies.chain,
            Request::Load => &self.replies.load,
        };
        if reply != *want {
            return Err(format!(
                "{request:?}: reply ({} rows) differs from the in-process session's ({} rows)",
                reply.rows.len(),
                want.rows.len()
            ));
        }
        Ok(Sample {
            total_ms: ms,
            // Replies are not streamed: the first row arrives with the last.
            first_ms: ms,
            rows: reply.rows.len() as u64,
        })
    }

    fn verify(&mut self) -> Result<(), String> {
        // Every reply was compared as it arrived; the in-process answers are
        // small enough to hold from the start.
        Ok(())
    }

    fn ladder(&mut self, ladder: &mut Ladder<'_>) -> Result<(), String> {
        let catalog = self.session.catalog();
        let relation = |name: &str| catalog.relation(name).map_err(|e| e.to_string());
        let (small_r, small_s) = (relation("small_r")?, relation("small_s")?);

        // Engine layers under the small left join.
        let theta = ThetaCondition::column_equals("Metric", "Metric");
        let wuon_ms = window_rungs(ladder, &small_r, &small_s, &theta, false)?;
        let (_, join_ms) = join_rungs(
            ladder,
            &small_r,
            &small_s,
            &theta,
            TpJoinKind::LeftOuter,
            wuon_ms,
        )?;

        // Lineage layer on the chain statement's roots: shared variables,
        // so probabilities need Shannon expansion.
        let chain = self.session.execute(CHAIN).map_err(|e| e.to_string())?;
        let shannon_ms = lineage_rungs(ladder, &[&small_r, &small_s], &chain);
        ladder.set_ms("lineage.shannon_ms", shannon_ms);

        // Query layer: the small join as a statement against the same join
        // as a function call, then the front-end steps per call.
        let session = &self.session;
        let unfiltered = SMALL_JOIN.split(" WHERE").next().unwrap_or(SMALL_JOIN);
        let (statement_ms, rows) = ladder.time("query.statement", || session.execute(unfiltered));
        rows.map_err(|e| e.to_string())?;
        ladder.set("query.session_over_core", statement_ms / join_ms);
        const CALLS: usize = 500;
        let per_call = |total_ms: f64| total_ms / CALLS as f64;
        let (ms, _) = ladder.time("query.parse", || {
            (0..CALLS).filter(|_| parse_query(DRILL).is_ok()).count()
        });
        ladder.set_ms("query.parse_ms", per_call(ms));
        let bound = parse_query(DRILL)
            .map_err(|e| e.to_string())?
            .bind_parameters(&[Value::Int(7)])
            .map_err(|e| e.to_string())?;
        let (ms, _) = ladder.time("query.plan", || {
            (0..CALLS)
                .filter(|_| plan_query_with(catalog, &bound, &QueryOptions::serial()).is_ok())
                .count()
        });
        ladder.set_ms("query.plan_ms", per_call(ms));
        let (ms, _) = ladder.time("query.prepare_hit", || {
            (0..CALLS)
                .filter(|_| session.prepare(DRILL).is_ok())
                .count()
        });
        ladder.set_ms("query.prepare_hit_ms", per_call(ms));
        let mut fresh = 0u64;
        let (ms, _) = ladder.time("query.prepare_miss", || {
            (0..CALLS)
                .filter(|_| {
                    fresh += 1;
                    let text = format!("SELECT * FROM meteo_r WHERE Station < {}", 5000 + fresh);
                    session.prepare(&text).is_ok()
                })
                .count()
        });
        ladder.set_ms("query.prepare_miss_ms", per_call(ms));
        let stats = session.stats();
        ladder.set("query.plan_cache_hits", stats.cache_hits as f64);
        ladder.set("query.plan_cache_misses", stats.cache_misses as f64);

        // Server layer.
        let client = &mut self.served.client;
        let (ms, _) = ladder.time("server.ping", || {
            (0..CALLS).filter(|_| client.ping().is_ok()).count()
        });
        ladder.set_ms("server.ping_rtt_ms", per_call(ms));
        let line = "EXECUTE drill (7)";
        let (ms, _) = ladder.time("server.parse_request", || {
            (0..CALLS)
                .filter(|_| protocol::parse_request(line).is_ok())
                .count()
        });
        ladder.set_ms("server.parse_request_ms", per_call(ms));
        let scan = session
            .execute("SELECT * FROM meteo_r")
            .map_err(|e| e.to_string())?;
        let (ms, bytes) = ladder.time("server.encode", || {
            protocol::rows_response(&scan).encode().len()
        });
        debug_assert!(bytes > 0);
        ladder.set_ms(
            "server.encode_ms_per_krow",
            ms * 1e3 / scan.len().max(1) as f64,
        );

        // The same statement served and in process; the difference is what
        // the server adds (wire, queue hand-off, shared cache, encoding).
        let params = [Value::Int(7)];
        let (served_ms, _) = ladder.time("server.drill_served", || {
            (0..CALLS)
                .filter(|_| client.execute("drill", &params).is_ok())
                .count()
        });
        let (local_ms, _) = ladder.time("server.drill_in_process", || {
            (0..CALLS)
                .filter(|_| {
                    session
                        .execute_with(DRILL, &params)
                        .map(|rel| rendered(&rel))
                        .is_ok()
                })
                .count()
        });
        ladder.set_ms("server.overhead_ms", per_call(served_ms - local_ms));

        // Two connections against one: informational on two cores with one
        // worker.
        let addr = self.served.server.local_addr();
        let burst = |connections: usize| -> Result<f64, String> {
            let started = Instant::now();
            let done: Vec<Result<usize, String>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..connections)
                    .map(|_| {
                        scope.spawn(move || {
                            let mut c = Client::connect(addr).map_err(|e| e.to_string())?;
                            c.prepare("drill", DRILL).map_err(|e| e.to_string())?;
                            for m in 0..CALLS {
                                c.execute("drill", &[Value::Int((m as u64 % METRICS) as i64)])
                                    .map_err(|e| e.to_string())?;
                            }
                            c.close().map_err(|e| e.to_string())?;
                            Ok(CALLS)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join()
                            .unwrap_or_else(|_| Err("client thread panicked".to_owned()))
                    })
                    .collect()
            });
            let total: usize = done.into_iter().sum::<Result<usize, String>>()?;
            Ok(total as f64 / started.elapsed().as_secs_f64())
        };
        let mut ratios = Vec::new();
        for _ in 0..ladder.reps() {
            let (_, one) = ladder.once("server.c1_burst", || burst(1));
            let (_, two) = ladder.once("server.c2_burst", || burst(2));
            ratios.push(two? / one?);
        }
        ladder.set("server.c2_qps_ratio", median(&mut ratios));

        let stats = self.served.server.stats();
        ladder.set("server.cache_hits", stats.cache_hits as f64);
        ladder.set("server.cache_misses", stats.cache_misses as f64);
        ladder.set("server.busy_rejections", stats.busy_rejections as f64);
        Ok(())
    }
}
