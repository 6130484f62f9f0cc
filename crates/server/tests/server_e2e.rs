//! End-to-end serving tests: a real `NimbusServer` on an ephemeral
//! loopback port, driven by real TCP clients.
//!
//! The core reconciliation: revenue in each listing's ledger must
//! equal the sum of prices the *clients* observed over the wire — the
//! serving layer adds no money and loses none. On top of that: admission
//! floods resolve as typed `BUSY` frames (never hangs), stale quotes fail
//! with the epoch error, listing routing fails typed (unknown, retired),
//! malformed frames and other protocol versions get typed protocol errors,
//! and graceful shutdown never truncates an in-flight response.

use nimbus_core::GaussianMechanism;
use nimbus_data::catalog::{DatasetSpec, PaperDataset};
use nimbus_market::curves::{DemandCurve, MarketCurves, ValueCurve};
use nimbus_market::{Broker, ListingBuilder, Marketplace, PurchaseRequest, Seller};
use nimbus_ml::LinearRegressionTrainer;
use nimbus_server::loadgen::{run_load, LoadConfig, LoadMode, LoadReport};
use nimbus_server::wire::{self, ErrorCode, Response};
use nimbus_server::{
    ClientConfig, NimbusClient, NimbusServer, RetryPolicy, ServerConfig, ServerError,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn listing(name: &str, seed: u64) -> ListingBuilder {
    let (dataset, _) = DatasetSpec::scaled(PaperDataset::Simulated1, 600)
        .materialize(seed)
        .unwrap();
    let curves = MarketCurves::new(ValueCurve::standard_concave(), DemandCurve::Uniform);
    ListingBuilder::new(name, Seller::new(name, dataset, curves))
        .trainer(LinearRegressionTrainer::ridge(1e-6))
        .mechanism(GaussianMechanism)
        .n_price_points(24)
        .error_curve_samples(12)
        .seed(seed)
}

/// A marketplace hosting the single published listing `e2e-listing`.
fn build_marketplace(seed: u64) -> (Arc<Marketplace>, Arc<Broker>) {
    let marketplace = Marketplace::new();
    marketplace.list(listing("e2e-listing", seed)).unwrap();
    let broker = marketplace.route("e2e-listing").unwrap();
    (Arc::new(marketplace), broker)
}

fn start_server(marketplace: Arc<Marketplace>, config: ServerConfig) -> NimbusServer {
    NimbusServer::start(marketplace, "e2e-listing", "127.0.0.1:0", config).unwrap()
}

fn fast_client() -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_secs(2),
        read_timeout: Duration::from_secs(10),
        write_timeout: Duration::from_secs(5),
        // These tests account for every BUSY themselves.
        retry: RetryPolicy::none(),
    }
}

/// The acceptance gate: concurrent buyers over loopback TCP, then the
/// broker-side ledger must equal the client-observed books exactly.
#[test]
fn concurrent_buyers_reconcile_with_ledger() {
    let (marketplace, broker) = build_marketplace(41);
    let server = start_server(
        marketplace,
        ServerConfig {
            shards: 2,
            workers_per_shard: 4,
            queue_capacity: 64,
            ..ServerConfig::default()
        },
    );
    let addr = server.local_addr();

    let report = run_load(
        addr,
        &LoadConfig {
            threads: 8,
            requests_per_thread: 25,
            mode: LoadMode::Buy,
            client: fast_client(),
            busy_retries: 0,
            mix: Vec::new(),
            ..LoadConfig::default()
        },
    );

    // Capacity (2 shards × 64) dwarfs 8 connections: nothing is shed and
    // nothing fails.
    assert_eq!(report.attempted, 200);
    assert_eq!(
        report.ok, 200,
        "busy={} errors={}",
        report.busy, report.errors
    );
    assert_eq!(report.busy, 0);
    assert_eq!(report.errors, 0);
    assert!(report.throughput() > 0.0);

    // Ledger revenue == sum of prices the clients saw over the wire
    // (shard totals accumulate in arrival order → f64 reassociation only).
    assert_eq!(broker.sales_count(), 200);
    assert!(
        (broker.collected_revenue() - report.revenue).abs() < 1e-6,
        "ledger {} vs client-observed {}",
        broker.collected_revenue(),
        report.revenue
    );

    // The server's own stats agree: one commit per buy, zero shed.
    let stats = server.stats().snapshot();
    let commit = stats.ops.iter().find(|o| o.op == "commit").unwrap();
    assert_eq!(commit.requests, 200);
    assert_eq!(commit.errors, 0);
    assert_eq!(stats.busy_rejections, 0);
    server.shutdown();
}

/// One scripted session covering every opcode, checked against the
/// broker's in-process state.
#[test]
fn full_session_menu_quote_commit_info_stats() {
    let (marketplace, broker) = build_marketplace(7);
    let server = start_server(marketplace, ServerConfig::default());
    let mut client = NimbusClient::connect(server.local_addr(), &fast_client()).unwrap();

    let snapshot = broker.snapshot().unwrap();
    let menu = client.menu(None).unwrap();
    assert_eq!(menu.epoch, snapshot.epoch());
    assert_eq!(menu.metric, snapshot.metric_name());
    assert_eq!(menu.points, snapshot.menu());

    // Wire quote matches the in-process quote bit for bit.
    let wire_quote = client
        .quote(None, PurchaseRequest::AtInverseNcp(10.0))
        .unwrap();
    let local_quote = broker
        .quote_request(PurchaseRequest::AtInverseNcp(10.0))
        .unwrap();
    assert_eq!(wire_quote.x, local_quote.x);
    assert_eq!(wire_quote.price, local_quote.price);
    assert_eq!(wire_quote.expected_error, local_quote.expected_error);
    assert_eq!(wire_quote.snapshot_epoch, local_quote.snapshot_epoch);

    // Commit delivers the noisy weights over the wire.
    let sale = client.commit(&wire_quote, wire_quote.price).unwrap();
    assert_eq!(sale.price, wire_quote.price);
    assert!(!sale.weights.is_empty());
    assert!(sale.weights.iter().all(|w| w.is_finite()));
    let ledger = broker.ledger();
    assert_eq!(ledger.count(), 1);
    assert_eq!(sale.transaction, ledger.transactions()[0].sequence);

    // The error-budget and price-budget purchase options also cross the wire.
    let budgeted = client.buy(None, PurchaseRequest::PriceBudget(1e9)).unwrap();
    assert!(budgeted.price <= 1e9);

    let info = client.info(None).unwrap();
    assert_eq!(info.listing, "e2e-listing");
    assert_eq!(info.epoch, snapshot.epoch());
    assert_eq!(info.menu_len, snapshot.menu().len() as u64);
    assert_eq!(info.sales, 2);
    assert!((info.revenue - broker.collected_revenue()).abs() < 1e-9);

    let stats = client.stats().unwrap();
    assert_eq!(stats.connections, 1);
    let commits = stats.ops.iter().find(|o| o.op == "commit").unwrap();
    assert_eq!(commits.requests, 2);
    assert!(commits.p99_micros >= commits.p50_micros);
    server.shutdown();
}

/// Flooding past `shards × queue_capacity` must shed with typed `BUSY`
/// frames — no hangs, no resets, and the non-shed traffic still completes.
/// The flood buys: each buy's QUOTE is answered on the event thread, and
/// its COMMIT is the queued op that sheds.
#[test]
fn flood_beyond_admission_bound_sheds_busy() {
    let (marketplace, _broker) = build_marketplace(13);
    let server = start_server(
        marketplace,
        ServerConfig {
            shards: 1,
            workers_per_shard: 1,
            queue_capacity: 1,
            handle_delay: Some(Duration::from_millis(25)),
            ..ServerConfig::default()
        },
    );

    let report = run_load(
        server.local_addr(),
        &LoadConfig {
            threads: 16,
            requests_per_thread: 4,
            mode: LoadMode::Buy,
            client: fast_client(),
            busy_retries: 0,
            mix: Vec::new(),
            ..LoadConfig::default()
        },
    );

    assert_eq!(report.attempted, 64);
    assert_eq!(report.ok + report.busy + report.errors, report.attempted);
    assert!(
        report.ok > 0,
        "the admitted connections must still be served"
    );
    assert!(
        report.busy > 0,
        "1 worker × queue of 1 against 16 threads must shed"
    );
    assert_eq!(
        report.errors, 0,
        "shedding must be the typed BUSY frame, never a reset or timeout"
    );
    assert!(report.shed_rate() > 0.0);
    assert_eq!(server.stats().busy_rejections(), report.busy);
    server.shutdown();
}

/// The quote→commit epoch protocol over the wire: a quote priced before
/// `open_market()` re-runs must fail with the typed epoch error, and
/// payment validation errors arrive typed too.
#[test]
fn stale_quotes_and_bad_payments_fail_typed() {
    let (marketplace, broker) = build_marketplace(29);
    let server = start_server(marketplace.clone(), ServerConfig::default());
    let mut client = NimbusClient::connect(server.local_addr(), &fast_client()).unwrap();

    let quote = client
        .quote(None, PurchaseRequest::AtInverseNcp(5.0))
        .unwrap();

    // Underpay: typed InsufficientPayment, no sale recorded.
    match client.commit(&quote, quote.price / 2.0) {
        Err(ServerError::Remote { code, .. }) => assert_eq!(code, ErrorCode::InsufficientPayment),
        other => panic!("expected InsufficientPayment, got {other:?}"),
    }
    // Nonsense payment: typed InvalidPayment.
    match client.commit(&quote, f64::NAN) {
        Err(ServerError::Remote { code, .. }) => assert_eq!(code, ErrorCode::InvalidPayment),
        other => panic!("expected InvalidPayment, got {other:?}"),
    }

    // Live re-publish over the admin path: the published epoch moves on…
    marketplace.publish("e2e-listing").unwrap();
    // …and the old quote is dead, even at full payment.
    match client.commit(&quote, quote.price) {
        Err(ServerError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::QuoteExpired);
            assert!(message.contains("epoch"), "{message}");
        }
        other => panic!("expected QuoteExpired, got {other:?}"),
    }
    assert_eq!(broker.sales_count(), 0);

    // A fresh quote against the new epoch works.
    let sale = client
        .buy(None, PurchaseRequest::AtInverseNcp(5.0))
        .unwrap();
    assert!(sale.price > 0.0);
    server.shutdown();
}

/// Protocol violations get typed error frames, bounded by the framing
/// limits — a garbage payload and an oversized length prefix both answer
/// with `BadFrame` and then the server hangs up, without harming other
/// connections.
#[test]
fn malformed_frames_get_typed_errors() {
    let (marketplace, _broker) = build_marketplace(3);
    let server = start_server(marketplace, ServerConfig::default());
    let addr = server.local_addr();

    // Garbage payload inside a well-formed frame.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        wire::write_frame(&mut stream, b"this is not a nimbus payload").unwrap();
        let payload = wire::read_frame(&mut stream).unwrap();
        match Response::decode(&payload).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadFrame),
            other => panic!("expected BadFrame error frame, got {other:?}"),
        }
        // Framing is poisoned: the server closes after answering.
        let mut rest = Vec::new();
        assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0);
    }

    // Wrong version byte: typed UnsupportedVersion.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut payload = Vec::from(wire::MAGIC);
        payload.extend_from_slice(&[wire::VERSION + 1, 0x01]);
        wire::write_frame(&mut stream, &payload).unwrap();
        let reply = wire::read_frame(&mut stream).unwrap();
        match Response::decode(&reply).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnsupportedVersion),
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    // A current-version QUOTE whose body is cut short: the event loop
    // answers it inline with BadFrame under its id, then hangs up.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let quote = wire::Request::Quote {
            listing: None,
            request: PurchaseRequest::AtInverseNcp(5.0),
        }
        .encode_with_corr(31);
        wire::write_frame(&mut stream, &quote[..quote.len() - 3]).unwrap();
        let reply = wire::read_frame(&mut stream).unwrap();
        match Response::decode_framed(&reply).unwrap() {
            (31, Response::Error { code, .. }) => assert_eq!(code, ErrorCode::BadFrame),
            other => panic!("expected BadFrame on corr 31, got {other:?}"),
        }
        let mut rest = Vec::new();
        assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0);
    }

    // Oversized length prefix: answered with BadFrame before any
    // allocation, then the connection is closed.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let huge = (wire::MAX_FRAME_LEN as u32 + 1).to_be_bytes();
        stream.write_all(&huge).unwrap();
        let payload = wire::read_frame(&mut stream).unwrap();
        match Response::decode(&payload).unwrap() {
            Response::Error { code, message } => {
                assert_eq!(code, ErrorCode::BadFrame);
                assert!(message.contains("exceeds"), "{message}");
            }
            other => panic!("expected BadFrame error frame, got {other:?}"),
        }
        let mut rest = Vec::new();
        assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0);
    }

    // A well-behaved client on the same server is unaffected.
    let mut client = NimbusClient::connect(addr, &fast_client()).unwrap();
    assert!(client.menu(None).is_ok());
    let stats = server.stats().snapshot();
    assert!(stats.protocol_errors >= 4);
    server.shutdown();
}

/// Graceful shutdown under live purchase traffic: in-flight responses are
/// never truncated, so every sale the ledger recorded was delivered to a
/// client — the books still reconcile after the plug is pulled.
#[test]
fn graceful_shutdown_drains_in_flight_buyers() {
    let (marketplace, broker) = build_marketplace(59);
    let server = start_server(
        marketplace,
        ServerConfig {
            shards: 2,
            workers_per_shard: 2,
            queue_capacity: 32,
            handle_delay: Some(Duration::from_millis(2)),
            ..ServerConfig::default()
        },
    );
    let addr = server.local_addr();

    let (report, ()) = std::thread::scope(|scope| {
        let load = scope.spawn(move || {
            run_load(
                addr,
                &LoadConfig {
                    threads: 4,
                    requests_per_thread: 200,
                    mode: LoadMode::Buy,
                    client: fast_client(),
                    busy_retries: 0,
                    mix: Vec::new(),
                    ..LoadConfig::default()
                },
            )
        });
        // Let some purchases land, then pull the plug mid-run.
        std::thread::sleep(Duration::from_millis(150));
        server.shutdown();
        (load.join().unwrap(), ())
    });

    assert_eq!(report.attempted, 800);
    assert!(report.ok > 0, "some purchases must have completed");
    assert!(
        report.ok < 800,
        "shutdown raced the run and should have cut it short"
    );
    // Every ledger entry was delivered: client-observed revenue covers the
    // ledger exactly (a commit whose response was never written cannot
    // exist, by the drain guarantee).
    assert_eq!(broker.sales_count() as u64, report.ok);
    assert!(
        (broker.collected_revenue() - report.revenue).abs() < 1e-6,
        "ledger {} vs client-observed {}",
        broker.collected_revenue(),
        report.revenue
    );

    // The port is closed: fresh connections are refused or reset, never hung.
    assert!(NimbusClient::connect(addr, &fast_client()).is_err());
}

/// Satellite: shed requests that honor the server's `retry_after_ms` hint
/// eventually get through, and the accounting still reconciles — the
/// server's shed counter equals final sheds plus absorbed (retried) ones.
/// The load buys, because only the COMMIT of a buy queues and can shed.
#[test]
fn busy_retries_honor_the_hint_and_reconcile() {
    let (marketplace, _broker) = build_marketplace(17);
    let server = start_server(
        marketplace,
        ServerConfig {
            shards: 1,
            workers_per_shard: 1,
            queue_capacity: 1,
            handle_delay: Some(Duration::from_millis(10)),
            retry_after_hint: Duration::from_millis(15),
            ..ServerConfig::default()
        },
    );

    let report = run_load(
        server.local_addr(),
        &LoadConfig {
            threads: 12,
            requests_per_thread: 4,
            mode: LoadMode::Buy,
            client: fast_client(),
            busy_retries: 32,
            mix: Vec::new(),
            ..LoadConfig::default()
        },
    );

    assert_eq!(report.attempted, 48);
    assert_eq!(report.ok + report.busy + report.errors, report.attempted);
    assert!(
        report.busy_retried > 0,
        "a 1-worker queue of 1 against 12 threads must shed at least once"
    );
    assert!(
        report.ok > report.attempted / 2,
        "retries should recover most sheds: ok={} busy={} retried={}",
        report.ok,
        report.busy,
        report.busy_retried
    );
    // Every BUSY the server sent is accounted for exactly once, as either
    // a final shed or an absorbed retry.
    assert_eq!(
        server.stats().busy_rejections(),
        report.busy + report.busy_retried
    );
    server.shutdown();
}

/// Snapshot reads take no queue slot. With the only worker asleep in a
/// 300 ms `handle_delay` and its queue of one full, a pipelined COMMIT is
/// shed with `BUSY` (writes still shed), yet a QUOTE and a MENU, on the
/// same connection and on a second one, are answered in well under the
/// worker's delay, and the stats count them under their own ops.
#[test]
fn snapshot_reads_answer_while_workers_are_saturated() {
    const DELAY: Duration = Duration::from_millis(300);
    const FAST: Duration = Duration::from_millis(150);
    let (marketplace, broker) = build_marketplace(19);
    let server = start_server(
        marketplace,
        ServerConfig {
            shards: 1,
            workers_per_shard: 1,
            queue_capacity: 1,
            handle_delay: Some(DELAY),
            ..ServerConfig::default()
        },
    );
    let addr = server.local_addr();
    let quote = broker
        .quote_request(PurchaseRequest::AtInverseNcp(5.0))
        .unwrap();
    let mut conn = nimbus_server::PipelinedClient::connect(addr, &fast_client()).unwrap();

    // One worker plus a queue of one hold at most two COMMITs while the
    // first sleeps, so at least the third is shed, and a BUSY is the
    // first frame back.
    let commits: Vec<u64> = (1..=3u64)
        .map(|nonce| {
            conn.send(&wire::Request::Commit {
                listing: None,
                x: quote.x,
                snapshot_epoch: quote.snapshot_epoch,
                payment: quote.price,
                nonce: Some(nonce),
                buyer: None,
            })
            .unwrap()
        })
        .collect();
    let (shed, response) = conn.recv().unwrap();
    assert!(commits.contains(&shed), "BUSY on unknown corr {shed}");
    assert!(matches!(response, Response::Busy { .. }), "{response:?}");

    // Same connection: both reads answered under their own ids, ahead of
    // the COMMITs still queued or sleeping. (The second COMMIT's BUSY may
    // still be on its way if the worker had not yet taken the first.)
    let sent = std::time::Instant::now();
    let quote_corr = conn
        .send(&wire::Request::Quote {
            listing: None,
            request: PurchaseRequest::AtInverseNcp(5.0),
        })
        .unwrap();
    let menu_corr = conn.send(&wire::Request::Menu { listing: None }).unwrap();
    let mut reads = 0;
    while reads < 2 {
        match conn.recv().unwrap() {
            (corr, Response::Quote(q)) if corr == quote_corr => assert_eq!(q.x, quote.x),
            (corr, Response::Menu(m)) if corr == menu_corr => assert!(!m.points.is_empty()),
            (corr, Response::Busy { .. }) if corr != shed && commits.contains(&corr) => continue,
            other => panic!("expected the quote or menu answer, got {other:?}"),
        }
        reads += 1;
    }
    let waited = sent.elapsed();
    assert!(
        waited < FAST,
        "reads on the saturated connection took {waited:?}"
    );

    // A second connection: the same, through the blocking client.
    let mut client = NimbusClient::connect(addr, &fast_client()).unwrap();
    let sent = std::time::Instant::now();
    assert_eq!(
        client
            .quote(None, PurchaseRequest::AtInverseNcp(5.0))
            .unwrap()
            .x,
        quote.x
    );
    assert!(!client.menu(None).unwrap().points.is_empty());
    let waited = sent.elapsed();
    assert!(
        waited < FAST,
        "reads on a second connection took {waited:?}"
    );

    let stats = server.stats().snapshot();
    let requests = |op: &str| stats.ops.iter().find(|o| o.op == op).unwrap().requests;
    assert_eq!(requests("quote"), 2);
    assert_eq!(requests("menu"), 2);
    assert!(stats.busy_rejections >= 1);
    server.shutdown();
}

/// Satellite: the `STATS` reply carries the live queue-depth gauge and
/// renders to Prometheus text with the expected series.
#[test]
fn stats_text_export_has_gauges() {
    let (marketplace, _broker) = build_marketplace(23);
    let server = start_server(marketplace, ServerConfig::default());
    let mut client = NimbusClient::connect(server.local_addr(), &fast_client()).unwrap();
    client
        .buy(None, PurchaseRequest::AtInverseNcp(5.0))
        .unwrap();

    let stats = client.stats().unwrap();
    // Idle server: nothing should be waiting in the admission queues.
    assert_eq!(stats.queue_depth, 0);

    let text = nimbus_server::render_prometheus(&stats);
    for series in [
        "# TYPE nimbus_connections_total counter",
        "# TYPE nimbus_queue_depth gauge",
        "# TYPE nimbus_shed_rate gauge",
        "nimbus_connections_total 1",
        "nimbus_queue_depth 0",
        "nimbus_shed_rate 0",
        "nimbus_requests_total{op=\"quote\"} 1",
        "nimbus_requests_total{op=\"commit\"} 1",
        "nimbus_request_latency_upper_micros{op=\"commit\",quantile=\"0.99\"}",
    ] {
        assert!(text.contains(series), "missing `{series}` in:\n{text}");
    }
    server.shutdown();
}

/// Tentpole: listing routing fails typed at every step of the lifecycle.
/// Unknown listings answer `InvalidRequest`, a second `list` under a taken
/// name is rejected without disturbing the live listing, a hot re-publish
/// voids outstanding quotes via the epoch protocol, retirement sheds with
/// the dedicated `Retired` code and is terminal, and the server refuses to
/// retire its own default listing out from under unscoped requests.
#[test]
fn listing_routing_and_lifecycle_error_paths() {
    let (marketplace, _broker) = build_marketplace(67);
    marketplace.list(listing("second", 68)).unwrap();
    let server = start_server(marketplace.clone(), ServerConfig::default());
    let mut client = NimbusClient::connect(server.local_addr(), &fast_client()).unwrap();

    // Unknown listing: typed InvalidRequest naming the listing. A name
    // near the string cap makes the echoing message outgrow it; the
    // server cuts it on a char boundary and the reply stays typed.
    let long_name = format!("a{}", "é".repeat(505));
    for name in ["nope", long_name.as_str()] {
        match client.quote(Some(name), PurchaseRequest::AtInverseNcp(5.0)) {
            Err(ServerError::Remote { code, message }) => {
                assert_eq!(code, ErrorCode::InvalidRequest);
                let head: String = name.chars().take(4).collect();
                assert!(message.contains(&head), "{message}");
            }
            other => panic!("expected InvalidRequest, got {other:?}"),
        }
    }

    // Duplicate publish: rejected, the existing listing keeps serving.
    let err = marketplace.list(listing("second", 69)).unwrap_err();
    assert!(err.to_string().contains("second"), "{err}");
    assert!(client.menu(Some("second")).is_ok());

    // Hot re-publish over the wire bumps the epoch; the quote taken
    // before it dies with the epoch error, a fresh quote commits fine.
    let stale = client
        .quote(Some("second"), PurchaseRequest::AtInverseNcp(5.0))
        .unwrap();
    assert_eq!(stale.listing, "second");
    let (epoch, expected_revenue) = client.publish("second").unwrap();
    assert!(epoch > stale.snapshot_epoch);
    assert!(expected_revenue.is_finite());
    match client.commit(&stale, stale.price) {
        Err(ServerError::Remote { code, .. }) => assert_eq!(code, ErrorCode::QuoteExpired),
        other => panic!("expected QuoteExpired, got {other:?}"),
    }
    let fresh = client
        .quote(Some("second"), PurchaseRequest::AtInverseNcp(5.0))
        .unwrap();
    assert_eq!(fresh.snapshot_epoch, epoch);
    client.commit(&fresh, fresh.price).unwrap();

    // Retirement: quotes issued before it die with the typed code, and
    // every subsequent touch of the listing answers `Retired`.
    let doomed = client
        .quote(Some("second"), PurchaseRequest::AtInverseNcp(5.0))
        .unwrap();
    client.retire("second").unwrap();
    match client.commit(&doomed, doomed.price) {
        Err(ServerError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::Retired);
            assert!(message.contains("second"), "{message}");
        }
        other => panic!("expected Retired, got {other:?}"),
    }
    match client.menu(Some("second")) {
        Err(ServerError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Retired),
        other => panic!("expected Retired, got {other:?}"),
    }
    // Terminal: a retired listing cannot be re-published.
    match client.publish("second") {
        Err(ServerError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Retired),
        other => panic!("expected Retired, got {other:?}"),
    }

    // The default listing is load-bearing for unscoped peers: refuse.
    match client.retire("e2e-listing") {
        Err(ServerError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::InvalidRequest);
            assert!(message.contains("default"), "{message}");
        }
        other => panic!("expected InvalidRequest, got {other:?}"),
    }
    assert!(client.menu(None).is_ok());
    server.shutdown();
}

/// A marketplace of `names`, listed with seeds from `seed` up and served
/// with `names[0]` as the default listing.
fn serve_listings(names: &[&str], seed: u64) -> (Arc<Marketplace>, NimbusServer) {
    let marketplace = Marketplace::new();
    for (i, name) in names.iter().enumerate() {
        marketplace.list(listing(name, seed + i as u64)).unwrap();
    }
    let marketplace = Arc::new(marketplace);
    let config = ServerConfig {
        shards: 2,
        workers_per_shard: 4,
        queue_capacity: 64,
        ..ServerConfig::default()
    };
    let server = NimbusServer::start(marketplace.clone(), names[0], "127.0.0.1:0", config);
    (marketplace, server.unwrap())
}

/// `report.per_listing` holds the `(listing, ok)` slices `expected`, in
/// order, and each listing's own ledger holds exactly the money its
/// buyers paid — routing never crosses revenue between listings.
fn assert_slices_reconcile(
    marketplace: &Marketplace,
    report: &LoadReport,
    expected: &[(&str, u64)],
) {
    assert_eq!(report.per_listing.len(), expected.len());
    for ((name, want_ok), slice) in expected.iter().zip(&report.per_listing) {
        assert_eq!(slice.listing, *name);
        assert_eq!(slice.ok, *want_ok, "{name}");
        let broker = marketplace.route(name).unwrap();
        assert_eq!(broker.sales_count() as u64, slice.ok);
        assert!(
            (broker.collected_revenue() - slice.revenue).abs() < 1e-6,
            "{name}: ledger {} vs clients {}",
            broker.collected_revenue(),
            slice.revenue,
        );
    }
}

/// Tentpole: three listings served concurrently from one socket, routed
/// by name under a weighted mix. Each listing's ledger reconciles
/// exactly against the load generator's per-listing slice, and the
/// marketplace-wide stats snapshot sums them consistently.
#[test]
fn multi_listing_buyers_route_and_reconcile_independently() {
    let (marketplace, server) = serve_listings(&["alpha", "beta", "gamma"], 71);
    let addr = server.local_addr();

    // The directory enumerates over the wire, default flagged.
    let mut client = NimbusClient::connect(addr, &fast_client()).unwrap();
    let listings = client.listings().unwrap();
    assert_eq!(listings.default_listing, "alpha");
    let names: Vec<&str> = listings.listings.iter().map(|l| l.name.as_str()).collect();
    assert_eq!(names, ["alpha", "beta", "gamma"]);
    assert!(listings
        .listings
        .iter()
        .all(|l| l.state == "published" && l.open));

    // 6 threads x 30 buys over a 3:2:1 mix (ring of 6 divides 30 evenly):
    // alpha gets 90, beta 60, gamma 30.
    let report = run_load(
        addr,
        &LoadConfig {
            threads: 6,
            requests_per_thread: 30,
            mode: LoadMode::Buy,
            client: fast_client(),
            busy_retries: 0,
            mix: vec![
                ("alpha".to_string(), 3),
                ("beta".to_string(), 2),
                ("gamma".to_string(), 1),
            ],
            ..LoadConfig::default()
        },
    );
    assert_eq!(report.ok, 180, "{report:?}");
    let expected = [("alpha", 90), ("beta", 60), ("gamma", 30)];
    assert_slices_reconcile(&marketplace, &report, &expected);

    // The marketplace snapshot sums the same rows it reports.
    let stats = marketplace.stats();
    assert_eq!(stats.total_sales, 180);
    assert!((stats.total_revenue - report.revenue).abs() < 1e-6);

    // Wire STATS carries the per-listing rows; Prometheus text labels them.
    let wire_stats = client.stats().unwrap();
    assert_eq!(wire_stats.listings.len(), 3);
    let text = nimbus_server::render_prometheus(&wire_stats);
    for name in ["alpha", "beta", "gamma"] {
        assert!(
            text.contains(&format!("nimbus_listing_sales_total{{listing=\"{name}\"}}")),
            "missing listing series for {name} in:\n{text}"
        );
    }
    server.shutdown();
}

/// Satellite: slow-loris defense. Half-open connections — some trickling
/// a partial frame header, some fully silent — are shed by the event
/// loop's header-read and idle deadlines with a typed `BUSY`, while quote
/// throughput on well-behaved connections stays flat (every request
/// served, nothing shed).
#[test]
fn slow_loris_half_open_connections_are_shed_while_service_continues() {
    let (marketplace, _broker) = build_marketplace(91);
    let server = start_server(
        marketplace,
        ServerConfig {
            header_read_timeout: Duration::from_millis(300),
            idle_timeout: Duration::from_millis(450),
            ..ServerConfig::default()
        },
    );
    let addr = server.local_addr();

    // Three connections trickle 2 bytes of a length prefix and stall;
    // three more connect and never send a byte.
    let mut loris: Vec<TcpStream> = Vec::new();
    for i in 0..6 {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        if i < 3 {
            stream.write_all(&[0u8, 0u8]).unwrap();
        }
        loris.push(stream);
    }

    // Real traffic is served at full rate while the half-open sockets sit
    // on the server: nothing is shed, nothing errors.
    let report = run_load(
        addr,
        &LoadConfig {
            threads: 4,
            requests_per_thread: 25,
            mode: LoadMode::Quote,
            client: fast_client(),
            ..LoadConfig::default()
        },
    );
    assert_eq!(report.ok, 100, "{report:?}");
    assert_eq!(report.busy, 0);
    assert_eq!(report.errors, 0);

    // Each half-open connection is shed: one typed BUSY frame, then the
    // server hangs up. (The deadline fires while or shortly after the
    // load runs; the blocking reads below absorb the wait.)
    for mut stream in loris {
        let payload = wire::read_frame(&mut stream).unwrap();
        match Response::decode(&payload).unwrap() {
            Response::Busy { .. } => {}
            other => panic!("expected BUSY shed, got {other:?}"),
        }
        let mut rest = Vec::new();
        assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0);
    }

    // Deadline sheds are accounted separately from admission sheds: the
    // queue never saw these connections.
    assert_eq!(server.stats().timeout_sheds(), 6);
    assert_eq!(server.stats().busy_rejections(), 0);
    server.shutdown();
}

/// Tentpole: wire pipelining. Many correlated quotes in flight on one
/// connection; responses are matched by correlation id, not arrival
/// order, and each answer is exactly the quote its request asked for.
/// A `MENU` interleaved mid-stream answers under its own id, and so does
/// an `ACCOUNT` lookup: a worker op whose answer comes back through the
/// completion list while the quotes around it are answered inline.
#[test]
fn pipelined_corr_ids_route_out_of_order_responses() {
    let (marketplace, broker) = build_marketplace(97);
    let server = start_server(
        marketplace,
        ServerConfig {
            shards: 2,
            workers_per_shard: 4,
            queue_capacity: 64,
            ..ServerConfig::default()
        },
    );
    let mut conn =
        nimbus_server::PipelinedClient::connect(server.local_addr(), &fast_client()).unwrap();

    // 12 quotes at distinct support points, all in flight at once, plus
    // one ACCOUNT and one MENU interleaved among them.
    let mut expected_x: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
    let (mut menu_corr, mut account_corr) = (0u64, 0u64);
    for i in 0..12u32 {
        let x = 1.0 + 8.0 * f64::from(i);
        let corr = conn
            .send(&wire::Request::Quote {
                listing: None,
                request: PurchaseRequest::AtInverseNcp(x),
            })
            .unwrap();
        expected_x.insert(corr, x);
        if i == 3 {
            account_corr = conn
                .send(&wire::Request::Account {
                    listing: None,
                    buyer: 42,
                })
                .unwrap();
        }
        if i == 6 {
            menu_corr = conn.send(&wire::Request::Menu { listing: None }).unwrap();
        }
    }
    assert_eq!(conn.in_flight(), 14);

    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..14 {
        let (corr, response) = conn.recv().unwrap();
        assert!(seen.insert(corr), "corr {corr} answered twice");
        if corr == menu_corr {
            match response {
                Response::Menu(menu) => assert!(!menu.points.is_empty()),
                other => panic!("expected menu on corr {corr}, got {other:?}"),
            }
            continue;
        }
        if corr == account_corr {
            match response {
                Response::Account(account) => {
                    assert_eq!(account.buyer, 42);
                    assert_eq!(account.listing, "e2e-listing");
                }
                other => panic!("expected account on corr {corr}, got {other:?}"),
            }
            continue;
        }
        let x = expected_x.remove(&corr).expect("unknown corr id");
        let local = broker
            .quote_request(PurchaseRequest::AtInverseNcp(x))
            .unwrap();
        match response {
            Response::Quote(quote) => {
                // The answer under this id is bit-for-bit the quote the
                // request with this id asked for.
                assert_eq!(quote.x, local.x, "corr {corr} answered the wrong request");
                assert_eq!(quote.price, local.price);
            }
            other => panic!("expected quote on corr {corr}, got {other:?}"),
        }
    }
    assert_eq!(conn.in_flight(), 0);
    assert!(expected_x.is_empty());
    server.shutdown();
}

/// Tentpole: `BATCH_COMMIT` resolves per item. One frame carrying a good
/// item, a stale-epoch item and a NaN payment answers Sale / QuoteExpired
/// / InvalidPayment in request order; only the good item lands in the
/// ledger. A batch against a retired listing fails whole with the typed
/// `Retired` code.
#[test]
fn batch_commit_mixed_outcomes() {
    use nimbus_server::{BatchItemMsg, BatchOutcomeMsg};
    let (marketplace, broker) = build_marketplace(101);
    marketplace.list(listing("doomed", 102)).unwrap();
    let server = start_server(marketplace.clone(), ServerConfig::default());
    let mut client = NimbusClient::connect(server.local_addr(), &fast_client()).unwrap();

    // A quote from the first epoch goes stale on re-publish.
    let stale = client
        .quote(None, PurchaseRequest::AtInverseNcp(5.0))
        .unwrap();
    marketplace.publish("e2e-listing").unwrap();
    let good = client
        .quote(None, PurchaseRequest::AtInverseNcp(9.0))
        .unwrap();

    let outcomes = client
        .commit_batch(
            None,
            vec![
                BatchItemMsg {
                    x: good.x,
                    snapshot_epoch: good.snapshot_epoch,
                    payment: good.price,
                    nonce: Some(1),
                    buyer: None,
                },
                BatchItemMsg {
                    x: stale.x,
                    snapshot_epoch: stale.snapshot_epoch,
                    payment: stale.price,
                    nonce: Some(2),
                    buyer: None,
                },
                BatchItemMsg {
                    x: good.x,
                    snapshot_epoch: good.snapshot_epoch,
                    payment: f64::NAN,
                    nonce: Some(3),
                    buyer: None,
                },
            ],
        )
        .unwrap();
    assert_eq!(outcomes.len(), 3);
    match &outcomes[0] {
        BatchOutcomeMsg::Sale(sale) => assert_eq!(sale.price, good.price),
        other => panic!("item 0 should sell, got {other:?}"),
    }
    match &outcomes[1] {
        BatchOutcomeMsg::Error { code, message } => {
            assert_eq!(*code, ErrorCode::QuoteExpired);
            assert!(message.contains("epoch"), "{message}");
        }
        other => panic!("item 1 should be stale, got {other:?}"),
    }
    match &outcomes[2] {
        BatchOutcomeMsg::Error { code, .. } => assert_eq!(*code, ErrorCode::InvalidPayment),
        other => panic!("item 2 should be rejected, got {other:?}"),
    }
    // Exactly the good item landed.
    assert_eq!(broker.sales_count(), 1);
    assert!((broker.collected_revenue() - good.price).abs() < 1e-9);

    // buy_batch sugar: quotes then one idempotent batch; all items sell.
    let sales = client
        .buy_batch(
            None,
            &[
                PurchaseRequest::AtInverseNcp(3.0),
                PurchaseRequest::AtInverseNcp(7.0),
            ],
        )
        .unwrap();
    assert!(sales.iter().all(|o| matches!(o, BatchOutcomeMsg::Sale(_))));
    assert_eq!(broker.sales_count(), 3);

    // Listing-level failures fail the whole frame, typed.
    client.retire("doomed").unwrap();
    match client.commit_batch(
        Some("doomed"),
        vec![BatchItemMsg {
            x: good.x,
            snapshot_epoch: good.snapshot_epoch,
            payment: good.price,
            nonce: None,
            buyer: None,
        }],
    ) {
        Err(ServerError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Retired),
        other => panic!("expected Retired, got {other:?}"),
    }
    server.shutdown();
}

/// Tentpole: frames split across arbitrary TCP segment boundaries. Three
/// pipelined quotes arrive interleaved — a complete frame plus half of
/// the next per write, with pauses so each lands in a separate readiness
/// event — and every request is still answered under its own id.
#[test]
fn interleaved_partial_frames_parse_across_readiness_events() {
    let (marketplace, broker) = build_marketplace(103);
    let server = start_server(marketplace, ServerConfig::default());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.set_nodelay(true).unwrap();

    let frames: Vec<(u64, f64, Vec<u8>)> = [(11u64, 5.0f64), (22, 20.0), (33, 60.0)]
        .iter()
        .map(|&(corr, x)| {
            let payload = wire::Request::Quote {
                listing: None,
                request: PurchaseRequest::AtInverseNcp(x),
            }
            .encode_with_corr(corr);
            let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
            frame.extend_from_slice(&payload);
            (corr, x, frame)
        })
        .collect();

    // Write boundaries deliberately misaligned with frame boundaries:
    // [frame1 + half of frame2] … [rest of frame2 + 2 bytes of frame3's
    // length prefix] … [rest of frame3].
    let split2 = frames[1].2.len() / 2;
    let mut chunk = frames[0].2.clone();
    chunk.extend_from_slice(&frames[1].2[..split2]);
    stream.write_all(&chunk).unwrap();
    std::thread::sleep(Duration::from_millis(60));
    let mut chunk = frames[1].2[split2..].to_vec();
    chunk.extend_from_slice(&frames[2].2[..2]);
    stream.write_all(&chunk).unwrap();
    std::thread::sleep(Duration::from_millis(60));
    stream.write_all(&frames[2].2[2..]).unwrap();

    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..3 {
        let payload = wire::read_frame(&mut stream).unwrap();
        let (corr, response) = Response::decode_framed(&payload).unwrap();
        let &(_, x, _) = frames
            .iter()
            .find(|(c, _, _)| *c == corr)
            .expect("unknown corr id");
        let local = broker
            .quote_request(PurchaseRequest::AtInverseNcp(x))
            .unwrap();
        match response {
            Response::Quote(quote) => assert_eq!(quote.x, local.x),
            other => panic!("expected quote on corr {corr}, got {other:?}"),
        }
        assert!(seen.insert(corr));
    }
    assert_eq!(seen.len(), 3);
    server.shutdown();
}

/// Only the current wire version is spoken: a v3 frame is answered with a
/// typed `UnsupportedVersion` error and the connection closes, while a
/// fresh connection on the same server still buys normally.
#[test]
fn pre_v5_frames_get_unsupported_version_and_a_close() {
    let (marketplace, broker) = build_marketplace(107);
    let server = start_server(marketplace, ServerConfig::default());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // A v3 MENU routed by name: no correlation id, trailing listing.
    let mut payload = vec![b'N', b'B', 3, 0x01];
    payload.extend_from_slice(&11u16.to_be_bytes());
    payload.extend_from_slice(b"e2e-listing");
    wire::write_frame(&mut stream, &payload).unwrap();
    let reply = wire::read_frame(&mut stream).unwrap();
    assert_eq!(reply[2], wire::VERSION);
    match Response::decode_framed(&reply).unwrap() {
        (0, Response::Error { code, .. }) => assert_eq!(code, ErrorCode::UnsupportedVersion),
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
    let mut rest = Vec::new();
    assert_eq!(
        stream.read_to_end(&mut rest).unwrap(),
        0,
        "server must close"
    );

    let mut client = NimbusClient::connect(server.local_addr(), &fast_client()).unwrap();
    let quote = client
        .quote(None, PurchaseRequest::AtInverseNcp(10.0))
        .unwrap();
    let sale = client.commit(&quote, quote.price).unwrap();
    assert_eq!(sale.price.to_bits(), quote.price.to_bits());
    assert_eq!(broker.sales_count(), 1);
    assert_eq!(server.stats().snapshot().protocol_errors, 1);
    server.shutdown();
}

/// Regression: a worker's completion must never wait for the event
/// loop's `POLL_CAP` (500 ms) timeout. The loop used to take the
/// completion list *before* draining the wake pipe, so a completion
/// pushed in between lost its wake byte and sat until some other event
/// arrived. Two pipelined connections run 10k round trips in lockstep —
/// both requests in flight together, then a barrier — so one completion
/// often lands while the loop handles the other, and a lost wake-up has
/// no later traffic to hide behind. Every round trip must stay far below
/// the cap. The request is an `ACCOUNT` lookup: a worker op, so every
/// answer crosses the completion list and the wake pipe (a QUOTE is
/// answered on the loop thread and would never exercise them).
#[test]
fn back_to_back_round_trips_never_wait_for_the_poll_cap() {
    const ROUNDS: usize = 5_000;
    const LIMIT: Duration = Duration::from_millis(250);
    let (marketplace, _broker) = build_marketplace(113);
    let server = start_server(marketplace, ServerConfig::default());
    let addr = server.local_addr();
    let barrier = std::sync::Barrier::new(2);
    let stalled = std::sync::atomic::AtomicBool::new(false);
    let longest: Vec<Duration> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let (barrier, stalled) = (&barrier, &stalled);
                s.spawn(move || {
                    let mut conn =
                        nimbus_server::PipelinedClient::connect(addr, &fast_client()).unwrap();
                    let request = wire::Request::Account {
                        listing: None,
                        buyer: 1,
                    };
                    let mut longest = Duration::ZERO;
                    for _ in 0..ROUNDS {
                        let sent = std::time::Instant::now();
                        let corr = conn.send(&request).unwrap();
                        let (got, response) = conn.recv().unwrap();
                        let waited = sent.elapsed();
                        longest = longest.max(waited);
                        assert_eq!(got, corr);
                        assert!(matches!(response, Response::Account(_)), "{response:?}");
                        if waited >= LIMIT {
                            stalled.store(true, std::sync::atomic::Ordering::SeqCst);
                        }
                        // Both connections stop together on the first stall.
                        barrier.wait();
                        if stalled.load(std::sync::atomic::Ordering::SeqCst) {
                            break;
                        }
                    }
                    longest
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for waited in longest {
        assert!(
            waited < LIMIT,
            "a round trip waited {waited:?}: a completion missed its wake-up"
        );
    }
    server.shutdown();
}

/// The pipelined + batched load-generator path end to end — depth-8
/// pipelines, 5-item `BATCH_COMMIT` windows, a herd of 256 idle
/// connections held throughout — reconciles exactly against the ledger,
/// sheds nothing, and reports latency quantiles and the open-socket count.
/// Two inputs: an in-memory listing, and a journalled listing with a
/// group-commit window, where every acknowledged sale must also reopen
/// from the journal.
#[test]
fn pipelined_batched_load_reconciles_with_ledger() {
    batched_load_reconciles(None);
    batched_load_reconciles(Some(Duration::from_micros(500)));
}

fn batched_load_reconciles(group_commit: Option<Duration>) {
    let root = std::env::temp_dir().join(format!("nimbus-e2e-batched-{}", std::process::id()));
    let journalled = |window: Duration| {
        listing("e2e-listing", 109)
            .journal_root(&root)
            .journal_group_commit_window(window)
    };
    let (marketplace, broker) = match group_commit {
        None => build_marketplace(109),
        Some(window) => {
            let _ = std::fs::remove_dir_all(&root);
            let marketplace = Marketplace::open_listings(vec![journalled(window)]).unwrap();
            let broker = marketplace.route("e2e-listing").unwrap();
            (Arc::new(marketplace), broker)
        }
    };
    let server = start_server(
        marketplace,
        ServerConfig {
            shards: 2,
            workers_per_shard: 4,
            queue_capacity: 64,
            ..ServerConfig::default()
        },
    );

    let report = run_load(
        server.local_addr(),
        &LoadConfig {
            threads: 4,
            requests_per_thread: 40,
            mode: LoadMode::Buy,
            client: fast_client(),
            busy_retries: 2,
            pipeline_depth: 8,
            batch_size: 5,
            idle_connections: 256,
            ..LoadConfig::default()
        },
    );

    assert_eq!(report.attempted, 160);
    assert_eq!(report.ok, 160, "{report:?}");
    assert_eq!(report.errors, 0);
    assert_eq!(report.busy, 0);
    assert!((report.ok_rate() - 1.0).abs() < 1e-12);
    // 4 worker connections + 256 idle sockets were held open concurrently,
    // and the idle herd shed nothing, not even a retried BUSY. Each
    // loopback socket costs two fds in this process, which fits under a
    // default soft limit of 1024.
    assert_eq!(report.open_connections, 260);
    assert_eq!(report.busy_retried, 0);
    assert!(report.p99_micros >= report.p50_micros);
    assert!(report.p50_micros > 0, "latencies must have been recorded");

    // Every batched commit landed exactly once (nonces are distinct), and
    // the money reconciles to the client-observed books.
    assert_eq!(broker.sales_count(), 160);
    assert!(
        (broker.collected_revenue() - report.revenue).abs() < 1e-6,
        "ledger {} vs client-observed {}",
        broker.collected_revenue(),
        report.revenue
    );

    // Server-side: 160 quotes, 32 batch frames of 5, no sheds.
    let stats = server.stats().snapshot();
    let batch = stats.ops.iter().find(|o| o.op == "batch_commit").unwrap();
    assert_eq!(batch.requests, 32);
    assert_eq!(batch.errors, 0);
    assert_eq!(stats.busy_rejections, 0);
    server.shutdown();

    // A group-committed ACK means the sale was fsynced: the journal
    // reopens to the same books.
    if let Some(window) = group_commit {
        drop(broker);
        let reopened = Marketplace::open_listings(vec![journalled(window)]).unwrap();
        let broker = reopened.route("e2e-listing").unwrap();
        assert_eq!(broker.sales_count(), 160);
        assert!((broker.collected_revenue() - report.revenue).abs() < 1e-6);
        drop(reopened);
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// The one request loop honours a listing mix at any depth and batch
/// size: a 3:1 mix over two listings at pipeline depth 8 redeems each
/// listing's quotes in its own `BATCH_COMMIT` windows of 4, and each
/// listing's ledger reconciles against its per-listing slice.
#[test]
fn mixed_listings_pipelined_and_batched_reconcile_per_listing() {
    let (marketplace, server) = serve_listings(&["alpha", "beta"], 113);

    // 4 threads x 24 buys: each thread sends 18 to alpha and 6 to beta.
    let report = run_load(
        server.local_addr(),
        &LoadConfig {
            threads: 4,
            requests_per_thread: 24,
            mode: LoadMode::Buy,
            client: fast_client(),
            busy_retries: 2,
            mix: vec![("alpha".to_string(), 3), ("beta".to_string(), 1)],
            pipeline_depth: 8,
            batch_size: 4,
            ..LoadConfig::default()
        },
    );
    assert_eq!(report.attempted, 96);
    assert_eq!(report.ok, 96, "{report:?}");
    assert_slices_reconcile(&marketplace, &report, &[("alpha", 72), ("beta", 24)]);

    // Windows are per listing: alpha's 18 per thread fill 4 windows and
    // leave 2, beta's 6 fill 1 and leave 2, so 4 x (5 + 2) frames.
    let stats = server.stats().snapshot();
    let requests = |op: &str| {
        stats
            .ops
            .iter()
            .find(|o| o.op == op)
            .map_or(0, |o| o.requests)
    };
    assert!(requests("batch_commit") > 0);
    assert_eq!(requests("batch_commit"), 28);
    assert_eq!(requests("commit"), 0);
    assert_eq!(stats.busy_rejections, 0);
    server.shutdown();
}
