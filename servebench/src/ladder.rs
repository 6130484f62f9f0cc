//! The traced run: the workload's generated operations replayed down the
//! layer ladder, one span per call, spans written out when the run ends.
//!
//! 1. in-process mechanism and journal calls;
//! 2. `Broker` commits, single (paced at the buy rate) and batched;
//! 3. `Marketplace::quote_request`;
//! 4. loopback, one request in flight;
//! 5. loopback, the workload itself (pipelined), traced;
//! 6. loopback, `BATCH_COMMIT`.
//!
//! Rungs 1 and 2 run on an in-process copy of the journalled d = 90
//! listing for every workload, so their figures are comparable across
//! workloads; on `quote_read` they are off the measured path. Set-up is
//! split by layer from calls on the same inputs `open_market` uses.

use crate::check;
use crate::drive::{self, commit_request, quote_request, Mode, UnitResult};
use crate::report::{self, Report};
use crate::setup::{self, Listings};
use crate::stats::{self, Samples, P50, P99};
use crate::trace::{self, Tracer, ROOT};
use crate::workload::{
    generate_ops, schedule, ListingSpec, Op, Rng, Workload, BATCH, BATCH_ROWS, BUY_RATE,
    GROUP_COMMIT_WINDOW, WARMUP,
};
use crate::{peak_rss_mib, Args};
use nimbus_core::{InverseNcp, RandomizedMechanism, SnappedGaussianMechanism};
use nimbus_market::journal::{FaultPlan, GroupCommit, Journal, SaleRecord};
use nimbus_market::{BatchCommitItem, Broker, Transaction};
use nimbus_server::wire::{self, BatchCommitMsg, BatchItemMsg, BatchOutcomeMsg, Request, Response};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Median of `reps` timings of `calls` invocations, in ns per call.
fn ns_per_call(calls: usize, reps: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut per = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        for i in 0..calls {
            f(i);
        }
        per.push(t.elapsed().as_nanos() as f64 / calls as f64);
    }
    stats::median(&per)
}

fn us(ns: Option<u64>) -> f64 {
    ns.map_or(f64::NAN, |v| v as f64 / 1e3)
}

/// Encode and decode cost of each frame kind, on frames the workload
/// sent and received.
fn wire_costs(
    quote_reqs: &[Request],
    quote_resps: &[Response],
    commit_reqs: &[Request],
    sale_resps: &[Response],
) -> Vec<(&'static str, f64, f64)> {
    let batch_reqs: Vec<Request> = commit_reqs
        .chunks_exact(BATCH)
        .map(|chunk| Request::BatchCommit {
            listing: None,
            items: chunk
                .iter()
                .filter_map(|r| match r {
                    Request::Commit {
                        x,
                        snapshot_epoch,
                        payment,
                        nonce,
                        buyer,
                        ..
                    } => Some(BatchItemMsg {
                        x: *x,
                        snapshot_epoch: *snapshot_epoch,
                        payment: *payment,
                        nonce: *nonce,
                        buyer: *buyer,
                    }),
                    _ => None,
                })
                .collect(),
        })
        .collect();
    let batch_resps: Vec<Response> = sale_resps
        .chunks_exact(BATCH)
        .map(|chunk| {
            Response::BatchCommit(BatchCommitMsg {
                items: chunk
                    .iter()
                    .filter_map(|r| match r {
                        Response::Commit(s) => Some(BatchOutcomeMsg::Sale(s.clone())),
                        _ => None,
                    })
                    .collect(),
            })
        })
        .collect();
    let mut out = Vec::new();
    let mut req = |name, msgs: &[Request]| {
        if msgs.is_empty() {
            out.push((name, f64::NAN, f64::NAN));
            return;
        }
        let calls = (4096 / msgs.len()).max(1) * msgs.len();
        let enc = ns_per_call(calls, 5, |i| {
            black_box(black_box(&msgs[i % msgs.len()]).encode_with_corr(i as u64 + 1));
        });
        let payloads: Vec<Vec<u8>> = msgs.iter().map(|m| m.encode_with_corr(7)).collect();
        let dec = ns_per_call(calls, 5, |i| {
            let _ = black_box(Request::decode_framed(black_box(
                &payloads[i % payloads.len()],
            )));
        });
        out.push((name, enc, dec));
    };
    req("quote_req", quote_reqs);
    req("commit_req", commit_reqs);
    req("batch_req", &batch_reqs);
    let mut resp = |name, msgs: &[Response]| {
        if msgs.is_empty() {
            out.push((name, f64::NAN, f64::NAN));
            return;
        }
        let calls = (4096 / msgs.len()).max(1) * msgs.len();
        let enc = ns_per_call(calls, 5, |i| {
            black_box(
                black_box(&msgs[i % msgs.len()]).encode_versioned(wire::VERSION, i as u64 + 1),
            );
        });
        let payloads: Vec<Vec<u8>> = msgs
            .iter()
            .map(|m| m.encode_versioned(wire::VERSION, 7))
            .collect();
        let dec = ns_per_call(calls, 5, |i| {
            let _ = black_box(Response::decode_framed(black_box(
                &payloads[i % payloads.len()],
            )));
        });
        out.push((name, enc, dec));
    };
    resp("quote_resp", quote_resps);
    resp("sale_resp", sale_resps);
    resp("batch_resp", &batch_resps);
    out
}

/// Runs `f(k, i, op)` on two threads, thread `k` taking every other op,
/// each call started at its due time on a Poisson schedule at `rate`.
fn paced<F>(
    ops: &[Op],
    rate: f64,
    span: Duration,
    rng: &mut Rng,
    epoch: Instant,
    f: F,
) -> Result<Vec<Tracer>, String>
where
    F: Fn(&mut Tracer, usize, &Op) -> Result<(), String> + Sync,
{
    let due = schedule(rate, span, rng);
    let n = due.len().min(ops.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|k| {
                let (due, f) = (&due, &f);
                scope.spawn(move || {
                    let mut t = Tracer::new(epoch);
                    let start = Instant::now();
                    for i in (k..n).step_by(2) {
                        let now = start.elapsed().as_nanos() as u64;
                        if due[i] > now {
                            std::thread::sleep(Duration::from_nanos(due[i] - now));
                        }
                        f(&mut t, i, &ops[i])?;
                    }
                    Ok::<Tracer, String>(t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "paced thread panicked".to_string())?)
            .collect()
    })
}

/// Runs `f(k, chunk_index, chunk)` on two threads in a closed loop over
/// `BATCH`-sized chunks until `span` has passed.
fn closed_batches<F>(
    ops: &[Op],
    span: Duration,
    epoch: Instant,
    f: F,
) -> Result<Vec<Tracer>, String>
where
    F: Fn(&mut Tracer, usize, &[Op]) -> Result<(), String> + Sync,
{
    let chunks: Vec<&[Op]> = ops.chunks_exact(BATCH).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|k| {
                let (chunks, f) = (&chunks, &f);
                scope.spawn(move || {
                    let mut t = Tracer::new(epoch);
                    let start = Instant::now();
                    for c in (k..chunks.len()).step_by(2) {
                        if start.elapsed() >= span {
                            break;
                        }
                        f(&mut t, c, chunks[c])?;
                    }
                    Ok::<Tracer, String>(t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "batch thread panicked".to_string())?)
            .collect()
    })
}

fn record_of(broker: &Broker, i: u64, op: &Op) -> Result<SaleRecord, String> {
    let q = broker
        .quote_request(op.request)
        .map_err(|e| e.to_string())?;
    Ok(SaleRecord {
        transaction: Transaction {
            sequence: i,
            inverse_ncp: q.x,
            price: q.price,
            expected_error: q.expected_error,
        },
        snapshot_epoch: q.snapshot_epoch,
        nonce: Some(op.nonce),
        buyer: Some(op.buyer),
    })
}

pub fn run(args: &Args, workdir: &Path) -> Result<Report, String> {
    let w = args.workload;
    let secs = args.seconds as f64;
    let part = |share: f64| Duration::from_secs_f64(secs * share);
    let mut rng = Rng::new(args.seed);
    let listings = Listings::generate(w.listings(), &mut rng);
    let names = listings.names();
    let mut report = Report::new();
    let epoch = Instant::now();
    let mut spans = Tracer::new(epoch);

    // Set-up, once, and its split by layer.
    let (served, times) = setup::start_repeated(&listings, workdir, w.journalled(), 1)?;
    let layers = setup::setup_layers(&listings)?;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let width = listings.specs.len().min(cores) as f64;
    let addr = served.server.local_addr();

    // Rungs 1–2 on an in-process copy of the journalled d = 90 listing.
    let own;
    let durable: &Listings = if w == Workload::QuoteRead {
        own = Listings::generate(
            vec![ListingSpec::durable_year("year-d90", BATCH_ROWS)],
            &mut rng,
        );
        &own
    } else {
        &listings
    };
    let inproc = durable.open(Some(&workdir.join("inproc")))?;
    let dname = durable.specs[0].name;
    let broker = inproc.route(dname).map_err(|e| e.to_string())?;
    let snapshot = broker
        .snapshot()
        .ok_or("in-process listing has no snapshot")?;
    let in_ops = generate_ops(&inproc, &[dname], 60_000, &mut rng)?;
    let (single_ops, rest) = in_ops.split_at(10_000);
    let (batch_ops, journal_ops) = rest.split_at(25_000);

    // Rung 1: the snapped sampler at d = 90 on the op stream's x values.
    let mechanism = SnappedGaussianMechanism;
    let seed = durable.seeds[0];
    let t_end = Instant::now() + part(0.05);
    for (i, op) in single_ops.iter().enumerate() {
        if Instant::now() >= t_end {
            break;
        }
        let (x, _) = snapshot.resolve(op.request).map_err(|e| e.to_string())?;
        let ncp = InverseNcp::new(x).map_err(|e| e.to_string())?.ncp();
        let mut r = nimbus_randkit::seeded_rng(nimbus_randkit::split_stream(seed, i as u64));
        let a = spans.now();
        let model = mechanism
            .perturb(snapshot.optimal(), ncp, &mut r)
            .map_err(|e| e.to_string())?;
        let b = spans.now();
        black_box(model);
        spans.record(i as u64, ROOT, "core.mechanism.perturb", a, b);
    }

    // Rung 1: the journal behind the shipped group-commit window.
    let scratch = workdir.join("scratch-journal.log");
    let (journal, _) = Journal::open(&scratch, 0, FaultPlan::new()).map_err(|e| e.to_string())?;
    let gc = GroupCommit::new(journal, GROUP_COMMIT_WINDOW);
    let before = gc.with_journal(|j| j.durable_len());
    let (j_single, j_batch) = journal_ops.split_at(journal_ops.len() / 2);
    for t in paced(
        j_single,
        BUY_RATE,
        part(0.1),
        &mut rng,
        epoch,
        |t, i, op| {
            let record = record_of(&broker, i as u64, op)?;
            let a = t.now();
            gc.append_sale(record).map_err(|e| e.to_string())?;
            let b = t.now();
            t.record(i as u64, ROOT, "market.journal.append", a, b);
            Ok(())
        },
    )? {
        spans.absorb(t);
    }
    let single_records = spans.durations("market.journal.append").len() as u64;
    let bytes_per_record =
        (gc.with_journal(|j| j.durable_len()) - before) as f64 / single_records.max(1) as f64;
    let base = j_single.len() as u64;
    for t in closed_batches(j_batch, part(0.08), epoch, |t, c, chunk| {
        let records = chunk
            .iter()
            .enumerate()
            .map(|(k, op)| record_of(&broker, base + (c * BATCH + k) as u64, op))
            .collect::<Result<Vec<_>, _>>()?;
        let a = t.now();
        let results = gc.append_sales(records);
        let b = t.now();
        if results.iter().any(|r| r.is_err()) {
            return Err("scratch journal batch failed".into());
        }
        t.record(c as u64, ROOT, "market.journal.append_batch", a, b);
        Ok(())
    })? {
        spans.absorb(t);
    }

    // Rung 2: broker commits, single at the buy rate, then batches.
    for t in paced(
        single_ops,
        BUY_RATE,
        part(0.1),
        &mut rng,
        epoch,
        |t, i, op| {
            let q = broker
                .quote_request(op.request)
                .map_err(|e| e.to_string())?;
            let a = t.now();
            broker
                .commit_at_idempotent_for(q.x, q.snapshot_epoch, q.price, op.nonce, Some(op.buyer))
                .map_err(|e| e.to_string())?;
            let b = t.now();
            t.record(i as u64, ROOT, "market.broker.commit", a, b);
            Ok(())
        },
    )? {
        spans.absorb(t);
    }
    for t in closed_batches(batch_ops, part(0.12), epoch, |t, c, chunk| {
        let items = chunk
            .iter()
            .map(|op| {
                let q = broker
                    .quote_request(op.request)
                    .map_err(|e| e.to_string())?;
                Ok(BatchCommitItem {
                    x: q.x,
                    snapshot_epoch: q.snapshot_epoch,
                    payment: q.price,
                    nonce: Some(op.nonce),
                    buyer: Some(op.buyer),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let a = t.now();
        let results = broker.commit_batch_at(&items);
        let b = t.now();
        if let Some(Err(e)) = results.iter().find(|r| r.is_err()) {
            return Err(format!("in-process batch commit failed: {e}"));
        }
        t.record(c as u64, ROOT, "market.broker.commit_batch", a, b);
        Ok(())
    })? {
        spans.absorb(t);
    }
    let inproc_sales = spans.durations("market.broker.commit").len()
        + BATCH * spans.durations("market.broker.commit_batch").len();
    if broker.market_stats().sales != inproc_sales {
        report.checks.fail(format!(
            "in-process broker ledger has {} sales, {inproc_sales} commits succeeded",
            broker.market_stats().sales
        ));
    }

    // Rung 3: Marketplace quotes on the workload's own request stream.
    let quote_ops = generate_ops(&served.market, &names, 20_000, &mut rng)?;
    let t_end = Instant::now() + part(0.05);
    for (i, op) in quote_ops.iter().enumerate() {
        if Instant::now() >= t_end {
            break;
        }
        let a = spans.now();
        let q = served
            .market
            .quote_request(names[op.listing], op.request)
            .map_err(|e| e.to_string())?;
        let b = spans.now();
        black_box(q);
        spans.record(i as u64, ROOT, "market.marketplace.quote", a, b);
    }

    // Loopback rungs. Commit rungs route to one listing.
    let commit_name = match w {
        Workload::QuoteRead => "reg-year-d90",
        _ => names[0],
    };
    let commit_names = [commit_name];
    // Rungs 4 and 6 together sell at most 10k units on the commit
    // listing, keeping its journal reopenable (RECOVERABLE_SALES) next to
    // the workload's own sales.
    let commit_ops = generate_ops(&served.market, &commit_names, 10_000, &mut rng)?;
    let (c_single, c_batch) = commit_ops.split_at(4_000);
    let mut acked = BTreeMap::new();

    // Rung 4: one request in flight.
    let (single_names, single_src, mode): (&[&str], &[Op], Mode) = match w {
        Workload::QuoteRead => (&names, &quote_ops, Mode::Quote),
        Workload::DurableBuy => (&commit_names, c_single, Mode::Buy),
        Workload::BatchBuy => (&commit_names, c_single, Mode::Batch(BATCH)),
    };
    let (single_lat, single_units) =
        drive::single_loop(addr, single_names, single_src, mode, part(0.12))?;
    check::merge(
        &mut acked,
        check::check_units(
            &served.market,
            single_names,
            single_src,
            &single_units,
            &mut report.checks,
        ),
    );
    let mut single = Samples::with_capacity(single_lat.len());
    for l in single_lat {
        single.push(l);
    }

    // Rung 5: the workload itself, traced.
    let run5 = report::drive(
        w,
        addr,
        &served.market,
        &names,
        WARMUP,
        part(0.3),
        &mut rng,
        true,
    )?;
    check::merge(
        &mut acked,
        check::check_units(
            &served.market,
            &names,
            &run5.ops,
            &run5.units,
            &mut report.checks,
        ),
    );
    report.outcomes = drive::outcomes(&run5.units);

    // Rung 6: BATCH_COMMIT.
    let run6 = drive::batch_loop(addr, &commit_names, c_batch, BATCH, part(0.12), true)?;
    check::merge(
        &mut acked,
        check::check_units(
            &served.market,
            &commit_names,
            &run6.ops,
            &run6.units,
            &mut report.checks,
        ),
    );
    let (busy, protocol) = report::server_errors(addr)?;
    check::check_ledgers(&served.market, &acked, &mut report.checks);

    // Frames for the wire costs: quotes from rung 5, sales from rung 6.
    let quote_reqs: Vec<Request> = run5
        .ops
        .iter()
        .take(2048)
        .map(|op| quote_request(op, &names))
        .collect();
    let quote_resps: Vec<Response> = run5
        .units
        .iter()
        .filter_map(|u| u.quote.clone().map(Response::Quote))
        .take(2048)
        .collect();
    let sold: Vec<(&Op, &UnitResult)> = run6
        .ops
        .iter()
        .zip(&run6.units)
        .filter(|(_, u)| u.sale.is_some() && u.quote.is_some())
        .take(2048)
        .collect();
    let commit_reqs: Vec<Request> = sold
        .iter()
        .filter_map(|(op, u)| u.quote.as_ref().map(|q| commit_request(op, q)))
        .collect();
    // Sold weights are not kept; a d-dimensional vector of the listing's
    // optimal model stands in, which encodes to the same frame size.
    let weights = served
        .market
        .route(commit_name)
        .ok()
        .and_then(|b| {
            b.snapshot()
                .map(|snap| snap.optimal().weights().as_slice().to_vec())
        })
        .unwrap_or_default();
    let sale_resps: Vec<Response> = sold
        .iter()
        .filter_map(|(_, u)| {
            u.sale.clone().map(|mut s| {
                s.weights = weights.clone();
                Response::Commit(s)
            })
        })
        .collect();
    let wire = wire_costs(&quote_reqs, &quote_resps, &commit_reqs, &sale_resps);
    let wire_ns = |kind: &str, enc: bool| {
        wire.iter()
            .find(|(k, _, _)| *k == kind)
            .map_or(f64::NAN, |(_, e, d)| if enc { *e } else { *d })
    };

    // In-process figures the loop remainder subtracts.
    let mut perturb = spans.durations("core.mechanism.perturb");
    let mut append = spans.durations("market.journal.append");
    let mut append_batch = spans.durations("market.journal.append_batch");
    let mut commit = spans.durations("market.broker.commit");
    let mut commit_batch = spans.durations("market.broker.commit_batch");
    let mut mquote = spans.durations("market.marketplace.quote");
    let quote_ns = mquote.percentile_ns(P50).map_or(f64::NAN, |v| v as f64);
    let commit_p50_us = us(commit.percentile_ns(P50));
    let batch_p50_us = us(commit_batch.percentile_ns(P50));
    let (server_wire_ns, market_us) = match w {
        Workload::QuoteRead => (
            wire_ns("quote_req", false) + wire_ns("quote_resp", true),
            quote_ns / 1e3,
        ),
        Workload::DurableBuy => (
            wire_ns("quote_req", false)
                + wire_ns("quote_resp", true)
                + wire_ns("commit_req", false)
                + wire_ns("sale_resp", true),
            quote_ns / 1e3 + commit_p50_us,
        ),
        Workload::BatchBuy => (
            wire_ns("batch_req", false) + wire_ns("batch_resp", true),
            batch_p50_us,
        ),
    };

    // Per unit of rung 5: client-side time (lag + client wire) from the
    // spans, the rest is server + network; what the in-process medians
    // do not explain is the loop remainder.
    let root_layer = if w == Workload::BatchBuy {
        "loadgen.batch"
    } else {
        "loadgen.op"
    };
    let mut latency: BTreeMap<u64, u64> = BTreeMap::new();
    let mut client: BTreeMap<u64, u64> = BTreeMap::new();
    for s in run5.tracer.spans() {
        let d = s.end.saturating_sub(s.start);
        if s.layer == root_layer {
            latency.insert(s.op, d);
        } else if s.layer == "loadgen.lag"
            || (s.layer.starts_with("client.wire.")
                && (w != Workload::BatchBuy || s.layer.contains("batch_")))
        {
            *client.entry(s.op).or_insert(0) += d;
        }
    }
    if w == Workload::BatchBuy {
        // Batch units start at the BATCH_COMMIT send, not at the quotes.
        latency.clear();
        for s in run5.tracer.spans() {
            if matches!(
                s.layer,
                "client.wire.batch_req.encode"
                    | "client.roundtrip.batch"
                    | "client.wire.batch_resp.decode"
            ) {
                *latency.entry(s.op).or_insert(0) += s.end.saturating_sub(s.start);
            }
        }
    }
    let fixed_ns = server_wire_ns + market_us * 1e3;
    let mut lat_s = Samples::with_capacity(latency.len());
    let mut client_s = Samples::with_capacity(latency.len());
    let mut loop_s: Vec<f64> = Vec::with_capacity(latency.len());
    for (op, &l) in &latency {
        let c = client.get(op).copied().unwrap_or(0);
        lat_s.push(l);
        client_s.push(c);
        loop_s.push((l as f64 - c as f64 - fixed_ns) / 1e3);
    }
    loop_s.sort_by(f64::total_cmp);
    let pick = |bp: u64| {
        if loop_s.is_empty() || (bp > P50 && !stats::supports(loop_s.len(), bp)) {
            f64::NAN
        } else {
            loop_s[stats::rank(loop_s.len(), bp) - 1]
        }
    };
    let (loop_p50, loop_p99) = (pick(P50), pick(P99));
    let lat_p50 = us(lat_s.percentile_ns(P50));
    let client_p50 = us(client_s.percentile_ns(P50));
    let unattributed = lat_p50 - (client_p50 + fixed_ns / 1e3 + loop_p50);
    let span_cost = trace::span_cost_ns();
    let spans_per_unit = run5.tracer.len() as f64 / latency.len().max(1) as f64;
    let mut m5 = run5.measured;

    // Shut down, reopen the journals, write the spans.
    let root = served.journal_root.clone();
    served.server.shutdown();
    if let Some(root) = &root {
        check::check_journals(root, &names, &acked, &mut report.checks);
    }
    spans.absorb(run5.tracer);
    spans.absorb(run6.tracer);
    let dump = workdir
        .parent()
        .unwrap_or(workdir)
        .join(format!("trace-{}.tsv", w.name()));
    spans
        .write_tsv(&dump)
        .map_err(|e| format!("writing {}: {e}", dump.display()))?;

    let commit_p50 = commit_p50_us;
    let perturb_p50 = us(perturb.percentile_ns(P50));
    let append_p50 = us(append.percentile_ns(P50));
    let mut batch6 = Samples::with_capacity(run6.latencies.len());
    for &(_, rt) in &run6.latencies {
        batch6.push(rt);
    }

    for (kind, enc, dec) in &wire {
        report.metric(&format!("server.wire.{kind}.encode_ns"), *enc, "ns");
        report.metric(&format!("server.wire.{kind}.decode_ns"), *dec, "ns");
    }
    report.metric("server.loop_us.p50", loop_p50, "us");
    report.metric("server.loop_us.p99", loop_p99, "us");
    report.metric("server.busy_rejections", busy as f64, "count");
    report.metric("server.protocol_errors", protocol as f64, "count");
    report.metric("market.marketplace.quote_ns", quote_ns, "ns");
    report.metric("market.broker.commit_us.p50", commit_p50, "us");
    report.metric(
        "market.broker.commit_us.p99",
        us(commit.percentile_ns(P99)),
        "us",
    );
    report.metric(
        "market.broker.self_us",
        commit_p50 - perturb_p50 - append_p50,
        "us",
    );
    report.metric("market.broker.batch_commit_us.p50", batch_p50_us, "us");
    report.metric(
        "market.broker.batch_commit_us.p99",
        us(commit_batch.percentile_ns(P99)),
        "us",
    );
    report.metric("core.mechanism.perturb_us", perturb_p50, "us");
    report.metric("market.journal.append_us.p50", append_p50, "us");
    report.metric(
        "market.journal.append_us.p99",
        us(append.percentile_ns(P99)),
        "us",
    );
    report.metric(
        "market.journal.append_batch_us",
        us(append_batch.percentile_ns(P50)),
        "us",
    );
    report.metric("market.journal.bytes_per_record", bytes_per_record, "B");
    report.metric("ml.train_s", layers.train_s, "s");
    report.metric("core.error_curve_s", layers.curve_s, "s");
    report.metric("optim.dp_ms", layers.dp_s * 1e3, "ms");
    report.metric("core.arbitrage_ms", layers.arbitrage_s * 1e3, "ms");
    report.metric(
        "setup.unattributed_s",
        times[0] - layers.total_s() / width,
        "s",
    );
    report.metric("loadgen.lag_p99_us", us(m5.lag.percentile_ns(P99)), "us");
    report.metric("loadgen.max_gap_ms", m5.max_gap_ns as f64 / 1e6, "ms");
    report.metric("trace.span_cost_ns", span_cost, "ns");
    report.metric("trace.overhead_us", spans_per_unit * span_cost / 1e3, "us");
    report.metric("trace.unattributed_us", unattributed, "us");
    report.metric("ladder.single_rt_us", us(single.percentile_ns(P50)), "us");
    report.metric(
        "ladder.pipelined_rt_us",
        us(m5.latency.percentile_ns(P50)),
        "us",
    );
    report.metric("ladder.batch_rt_us", us(batch6.percentile_ns(P50)), "us");

    report.line(format!(
        "setup: {:.4} s wall; train {:.4} s, error curves {:.4} s, DP {:.3} ms, arbitrage {:.3} ms (summed over {} listings, parallel width {width})",
        times[0],
        layers.train_s,
        layers.curve_s,
        layers.dp_s * 1e3,
        layers.arbitrage_s * 1e3,
        listings.specs.len()
    ));
    report.line(format!(
        "blocking path p50 (us): latency {lat_p50:.2} = client {client_p50:.2} + server wire {:.2} + market {market_us:.2} + loop {loop_p50:.2} + unattributed {unattributed:.2}",
        server_wire_ns / 1e3
    ));
    report.line(format!(
        "broker commit p50 {commit_p50:.2} us = perturb {perturb_p50:.2} + journal append {append_p50:.2} + self {:.2}",
        commit_p50 - perturb_p50 - append_p50
    ));
    report.line(format!(
        "tracing: {spans_per_unit:.1} spans per unit at {span_cost:.1} ns each; {} spans written to {}",
        spans.len(),
        dump.display()
    ));
    report.line(format!("peak_rss_mb = {:.1} MiB", peak_rss_mib()));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_per_call_takes_the_median_rep() {
        let mut n = 0u64;
        let v = ns_per_call(10, 3, |_| n += 1);
        assert!(v >= 0.0);
        assert_eq!(n, 30);
    }
}
