//! Hand-rolled subcommand parsing for the `nimbus` binary.

use std::fmt;

/// A fully parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// The guided tour.
    Demo {
        /// Table 3 dataset name (case-insensitive).
        dataset: String,
        /// Base seed.
        seed: u64,
    },
    /// Print the optimized price curve for a market.
    Price {
        /// Value curve shape: convex | concave | linear | sigmoid.
        value: String,
        /// Demand shape: uniform | mid_peaked | bimodal | increasing | decreasing.
        demand: String,
        /// Number of versions.
        points: usize,
    },
    /// Buy one model instance.
    Buy {
        /// Table 3 dataset name.
        dataset: String,
        /// The buyer's request.
        request: BuyRequest,
        /// Error metric the market prices against:
        /// square | logistic | zero_one | hinge.
        metric: String,
        /// Base seed.
        seed: u64,
    },
    /// Search the posted prices for arbitrage.
    Attack {
        /// Value curve shape.
        value: String,
        /// Number of versions.
        points: usize,
        /// Attack naive (valuation) pricing instead of MBP pricing.
        naive: bool,
    },
    /// Trace the revenue/affordability fairness frontier.
    Fairness {
        /// Value curve shape.
        value: String,
        /// Number of versions.
        points: usize,
        /// Optional hard affordability floor τ ∈ [0, 1].
        tau: Option<f64>,
    },
    /// Print the error-transformation curve of a dataset (Figure 6 slice).
    Curve {
        /// Table 3 dataset name.
        dataset: String,
        /// Monte-Carlo samples per NCP.
        samples: usize,
        /// Base seed.
        seed: u64,
    },
    /// Serve a marketplace of dataset listings over TCP.
    Serve {
        /// Listen address (`host:port`; port 0 picks an ephemeral port).
        addr: String,
        /// Table 3 dataset names, one listing each (`--dataset` repeats).
        /// The first is the default listing unscoped requests are routed to.
        datasets: Vec<String>,
        /// Error metric the markets price against.
        metric: String,
        /// Base seed.
        seed: u64,
        /// Admission shards.
        shards: usize,
        /// Worker threads per shard.
        workers: usize,
        /// Pending-connection bound per shard.
        queue: usize,
        /// Optional write-ahead sale journal path for a single-listing
        /// serve: sales are made durable before they are acknowledged,
        /// and replayed on restart.
        journal: Option<String>,
        /// Optional journal directory: every listing journals to
        /// `<dir>/<listing>/journal.log` and all of them are recovered
        /// on restart.
        journal_dir: Option<String>,
        /// Optional per-buyer noise-precision budget (`Σ x` cap) every
        /// listing is published with; buyers who exceed it get typed
        /// `BUDGET_EXHAUSTED` rejects.
        buyer_budget: Option<f64>,
    },
    /// Talk to a running server.
    Client {
        /// Server address (`host:port`).
        addr: String,
        /// What to ask the server.
        action: ClientAction,
    },
    /// Run or report on the closed-loop agent simulation.
    Sim {
        /// What to simulate.
        action: SimAction,
    },
    /// Print usage.
    Help,
}

/// Actions of the `sim` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub enum SimAction {
    /// Run a scenario end-to-end and print the report.
    Run {
        /// Built-in scenario name (`nimbus sim scenarios` lists them).
        scenario: String,
        /// Path to a `key = value` scenario file; overrides `--scenario`.
        file: Option<String>,
        /// Run seed: same (scenario, seed) ⇒ identical journal.
        seed: u64,
        /// Optional path the per-tick JSONL journal is written to.
        out: Option<String>,
    },
    /// Summarize a journal produced by `sim run --out`.
    Report {
        /// Path to the JSONL journal.
        file: String,
    },
    /// List the built-in scenarios.
    Scenarios,
}

/// Actions of the `client` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientAction {
    /// Fetch the posted price menu.
    Menu {
        /// Listing to route to (`None` = the server's default listing).
        listing: Option<String>,
    },
    /// Fetch listing metadata and ledger accounting.
    Info {
        /// Listing to route to (`None` = the server's default listing).
        listing: Option<String>,
    },
    /// Enumerate every listing the marketplace hosts.
    Listings,
    /// Fetch one buyer's noise-budget account on a listing.
    Account {
        /// Buyer identity to look up.
        buyer: u64,
        /// Listing to route to (`None` = the server's default listing).
        listing: Option<String>,
    },
    /// Fetch the server's serving statistics.
    Stats {
        /// Render Prometheus text exposition format instead of the table.
        text: bool,
    },
    /// Quote then commit one purchase.
    Buy {
        /// The buyer's request.
        request: BuyRequest,
        /// Listing to route to (`None` = the server's default listing).
        listing: Option<String>,
        /// Buyer identity the commit is charged to (`None` = anonymous).
        buyer: Option<u64>,
    },
    /// (Re-)publish a listing: a new pricing epoch goes live and every
    /// outstanding quote against the old epoch is invalidated.
    Publish {
        /// Listing to publish.
        listing: String,
    },
    /// Retire a listing: it permanently stops quoting and selling.
    Retire {
        /// Listing to retire.
        listing: String,
    },
    /// Run the loopback load generator against the server.
    Load {
        /// Concurrent client threads.
        threads: usize,
        /// Requests per thread.
        requests: usize,
        /// Full purchases instead of read-only quotes.
        buy: bool,
        /// Retries per request after a `BUSY` shed (honoring the server's
        /// retry hint) before counting it as shed.
        retries: u32,
        /// Weighted per-listing traffic mix (`name=weight` pairs);
        /// empty = all traffic on the default listing.
        mix: Vec<(String, u32)>,
        /// Correlated frames kept in flight per thread (pipelining);
        /// 0/1 = one frame at a time. Combines with `mix` and `batch`.
        pipeline: usize,
        /// Commits grouped into one `BATCH_COMMIT` frame per listing
        /// window (`--buy` only, at any depth); 0/1 = one keyed `COMMIT`
        /// per request.
        batch: usize,
        /// Buyer identity every generated commit is charged to
        /// (`None` = anonymous).
        buyer: Option<u64>,
    },
}

/// The three §3.2 purchase options, CLI-side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BuyRequest {
    /// `--error-budget E`.
    ErrorBudget(f64),
    /// `--price-budget P`.
    PriceBudget(f64),
    /// `--at X` (inverse NCP).
    AtInverseNcp(f64),
}

/// Parse failures with user-facing messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// No subcommand given.
    MissingCommand,
    /// Unknown subcommand.
    UnknownCommand(String),
    /// Unknown flag for the subcommand.
    UnknownFlag(String),
    /// A flag was given without its value.
    MissingValue(String),
    /// A flag value failed to parse.
    BadValue {
        /// The flag.
        flag: String,
        /// The raw value.
        value: String,
    },
    /// `buy` requires exactly one of the three request flags.
    AmbiguousBuyRequest,
    /// `serve` takes `--journal` or `--journal-dir`, not both.
    AmbiguousJournal,
    /// `client` requires an action.
    MissingClientAction,
    /// `sim` requires an action.
    MissingSimAction,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::MissingCommand => {
                write!(f, "no command given\n{}", usage())
            }
            ParseError::UnknownCommand(c) => write!(f, "unknown command {c:?}\n{}", usage()),
            ParseError::UnknownFlag(flag) => write!(f, "unknown flag {flag}"),
            ParseError::MissingValue(flag) => write!(f, "flag {flag} requires a value"),
            ParseError::BadValue { flag, value } => {
                write!(f, "cannot parse {value:?} for {flag}")
            }
            ParseError::AmbiguousBuyRequest => write!(
                f,
                "buy requires exactly one of --error-budget, --price-budget, --at"
            ),
            ParseError::AmbiguousJournal => write!(
                f,
                "serve takes --journal PATH or --journal-dir DIR, not both"
            ),
            ParseError::MissingClientAction => write!(
                f,
                "client requires an action: menu | info | listings | stats | account | buy | \
                 publish | retire | load"
            ),
            ParseError::MissingSimAction => {
                write!(f, "sim requires an action: run | report | scenarios")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Usage text.
pub fn usage() -> String {
    "usage:\n  \
     nimbus demo   [--dataset NAME] [--seed N]\n  \
     nimbus price  [--value convex|concave|linear|sigmoid] \
     [--demand uniform|mid_peaked|bimodal|increasing|decreasing] [--points N]\n  \
     nimbus buy    (--error-budget E | --price-budget P | --at X) [--dataset NAME] \
     [--metric square|logistic|zero_one|hinge] [--seed N]\n  \
     nimbus attack [--value SHAPE] [--points N] [--naive]\n  \
     nimbus fairness [--value SHAPE] [--points N] [--tau T]\n  \
     nimbus curve  [--dataset NAME] [--samples N] [--seed N]\n  \
     nimbus serve  [--addr HOST:PORT] [--dataset NAME]... [--metric M] [--seed N] \
     [--shards K] [--workers W] [--queue Q] [--journal PATH | --journal-dir DIR] \
     [--buyer-budget B]\n  \
     nimbus client menu|info [--listing NAME] [--addr HOST:PORT]\n  \
     nimbus client listings [--addr HOST:PORT]\n  \
     nimbus client stats [--text] [--addr HOST:PORT]\n  \
     nimbus client account BUYER [--listing NAME] [--addr HOST:PORT]\n  \
     nimbus client buy (--error-budget E | --price-budget P | --at X) [--listing NAME] \
     [--buyer B] [--addr HOST:PORT]\n  \
     nimbus client publish|retire --listing NAME [--addr HOST:PORT]\n  \
     nimbus client load [--threads N] [--requests M] [--buy] [--busy-retries R] \
     [--mix NAME=W,NAME=W] [--pipeline D] [--batch B] [--buyer ID] [--addr HOST:PORT]\n    \
     (--mix, --pipeline and --batch combine; --batch applies to --buy)\n  \
     nimbus sim run [--scenario NAME | --file PATH] [--seed N] [--out FILE]\n  \
     nimbus sim report FILE\n  \
     nimbus sim scenarios\n  \
     nimbus help"
        .to_string()
}

/// Default address `serve` binds and `client` dials.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7654";

fn take_value<I: Iterator<Item = String>>(iter: &mut I, flag: &str) -> Result<String, ParseError> {
    iter.next()
        .ok_or_else(|| ParseError::MissingValue(flag.to_string()))
}

fn parse_num<T: std::str::FromStr, I: Iterator<Item = String>>(
    iter: &mut I,
    flag: &str,
) -> Result<T, ParseError> {
    let raw = take_value(iter, flag)?;
    raw.parse().map_err(|_| ParseError::BadValue {
        flag: flag.to_string(),
        value: raw,
    })
}

/// Parses a `--mix` spec: comma-separated `name=weight` pairs (a bare
/// `name` means weight 1).
fn parse_mix(raw: &str) -> Result<Vec<(String, u32)>, ParseError> {
    let bad = || ParseError::BadValue {
        flag: "--mix".to_string(),
        value: raw.to_string(),
    };
    let mut mix = Vec::new();
    for part in raw.split(',') {
        let part = part.trim();
        if part.is_empty() {
            return Err(bad());
        }
        match part.split_once('=') {
            None => mix.push((part.to_string(), 1)),
            Some((name, weight)) => {
                let name = name.trim();
                let weight: u32 = weight.trim().parse().map_err(|_| bad())?;
                if name.is_empty() {
                    return Err(bad());
                }
                mix.push((name.to_string(), weight));
            }
        }
    }
    Ok(mix)
}

/// Parses the argument list (without the program name).
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Command, ParseError> {
    let mut iter = args.into_iter();
    let command = iter.next().ok_or(ParseError::MissingCommand)?;
    match command.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "demo" => {
            let mut dataset = "Simulated1".to_string();
            let mut seed = 7u64;
            while let Some(flag) = iter.next() {
                match flag.as_str() {
                    "--dataset" => dataset = take_value(&mut iter, "--dataset")?,
                    "--seed" => seed = parse_num(&mut iter, "--seed")?,
                    other => return Err(ParseError::UnknownFlag(other.to_string())),
                }
            }
            Ok(Command::Demo { dataset, seed })
        }
        "price" => {
            let mut value = "concave".to_string();
            let mut demand = "uniform".to_string();
            let mut points = 20usize;
            while let Some(flag) = iter.next() {
                match flag.as_str() {
                    "--value" => value = take_value(&mut iter, "--value")?,
                    "--demand" => demand = take_value(&mut iter, "--demand")?,
                    "--points" => points = parse_num(&mut iter, "--points")?,
                    other => return Err(ParseError::UnknownFlag(other.to_string())),
                }
            }
            Ok(Command::Price {
                value,
                demand,
                points,
            })
        }
        "buy" => {
            let mut dataset = "Simulated1".to_string();
            let mut metric = "square".to_string();
            let mut seed = 7u64;
            let mut request: Option<BuyRequest> = None;
            let set = |r: BuyRequest, request: &mut Option<BuyRequest>| {
                if request.is_some() {
                    Err(ParseError::AmbiguousBuyRequest)
                } else {
                    *request = Some(r);
                    Ok(())
                }
            };
            while let Some(flag) = iter.next() {
                match flag.as_str() {
                    "--dataset" => dataset = take_value(&mut iter, "--dataset")?,
                    "--metric" => metric = take_value(&mut iter, "--metric")?,
                    "--seed" => seed = parse_num(&mut iter, "--seed")?,
                    "--error-budget" => {
                        let e = parse_num(&mut iter, "--error-budget")?;
                        set(BuyRequest::ErrorBudget(e), &mut request)?;
                    }
                    "--price-budget" => {
                        let p = parse_num(&mut iter, "--price-budget")?;
                        set(BuyRequest::PriceBudget(p), &mut request)?;
                    }
                    "--at" => {
                        let x = parse_num(&mut iter, "--at")?;
                        set(BuyRequest::AtInverseNcp(x), &mut request)?;
                    }
                    other => return Err(ParseError::UnknownFlag(other.to_string())),
                }
            }
            let request = request.ok_or(ParseError::AmbiguousBuyRequest)?;
            Ok(Command::Buy {
                dataset,
                request,
                metric,
                seed,
            })
        }
        "attack" => {
            let mut value = "convex".to_string();
            let mut points = 10usize;
            let mut naive = false;
            while let Some(flag) = iter.next() {
                match flag.as_str() {
                    "--value" => value = take_value(&mut iter, "--value")?,
                    "--points" => points = parse_num(&mut iter, "--points")?,
                    "--naive" => naive = true,
                    other => return Err(ParseError::UnknownFlag(other.to_string())),
                }
            }
            Ok(Command::Attack {
                value,
                points,
                naive,
            })
        }
        "fairness" => {
            let mut value = "convex".to_string();
            let mut points = 50usize;
            let mut tau: Option<f64> = None;
            while let Some(flag) = iter.next() {
                match flag.as_str() {
                    "--value" => value = take_value(&mut iter, "--value")?,
                    "--points" => points = parse_num(&mut iter, "--points")?,
                    "--tau" => tau = Some(parse_num(&mut iter, "--tau")?),
                    other => return Err(ParseError::UnknownFlag(other.to_string())),
                }
            }
            Ok(Command::Fairness { value, points, tau })
        }
        "curve" => {
            let mut dataset = "Simulated1".to_string();
            let mut samples = 100usize;
            let mut seed = 7u64;
            while let Some(flag) = iter.next() {
                match flag.as_str() {
                    "--dataset" => dataset = take_value(&mut iter, "--dataset")?,
                    "--samples" => samples = parse_num(&mut iter, "--samples")?,
                    "--seed" => seed = parse_num(&mut iter, "--seed")?,
                    other => return Err(ParseError::UnknownFlag(other.to_string())),
                }
            }
            Ok(Command::Curve {
                dataset,
                samples,
                seed,
            })
        }
        "serve" => {
            let mut addr = DEFAULT_ADDR.to_string();
            let mut datasets: Vec<String> = Vec::new();
            let mut metric = "square".to_string();
            let mut seed = 7u64;
            let mut shards = 2usize;
            let mut workers = 2usize;
            let mut queue = 64usize;
            let mut journal: Option<String> = None;
            let mut journal_dir: Option<String> = None;
            let mut buyer_budget: Option<f64> = None;
            while let Some(flag) = iter.next() {
                match flag.as_str() {
                    "--addr" => addr = take_value(&mut iter, "--addr")?,
                    "--dataset" => datasets.push(take_value(&mut iter, "--dataset")?),
                    "--metric" => metric = take_value(&mut iter, "--metric")?,
                    "--seed" => seed = parse_num(&mut iter, "--seed")?,
                    "--shards" => shards = parse_num(&mut iter, "--shards")?,
                    "--workers" => workers = parse_num(&mut iter, "--workers")?,
                    "--queue" => queue = parse_num(&mut iter, "--queue")?,
                    "--journal" => journal = Some(take_value(&mut iter, "--journal")?),
                    "--journal-dir" => journal_dir = Some(take_value(&mut iter, "--journal-dir")?),
                    "--buyer-budget" => {
                        buyer_budget = Some(parse_num(&mut iter, "--buyer-budget")?)
                    }
                    other => return Err(ParseError::UnknownFlag(other.to_string())),
                }
            }
            if journal.is_some() && journal_dir.is_some() {
                return Err(ParseError::AmbiguousJournal);
            }
            if datasets.is_empty() {
                datasets.push("Simulated1".to_string());
            }
            Ok(Command::Serve {
                addr,
                datasets,
                metric,
                seed,
                shards,
                workers,
                queue,
                journal,
                journal_dir,
                buyer_budget,
            })
        }
        "client" => {
            let action_word = iter.next().ok_or(ParseError::MissingClientAction)?;
            let mut addr = DEFAULT_ADDR.to_string();
            match action_word.as_str() {
                "menu" | "info" | "stats" | "listings" => {
                    let mut text = false;
                    let mut listing: Option<String> = None;
                    let takes_listing = matches!(action_word.as_str(), "menu" | "info");
                    while let Some(flag) = iter.next() {
                        match flag.as_str() {
                            "--addr" => addr = take_value(&mut iter, "--addr")?,
                            "--text" if action_word == "stats" => text = true,
                            "--listing" if takes_listing => {
                                listing = Some(take_value(&mut iter, "--listing")?)
                            }
                            other => return Err(ParseError::UnknownFlag(other.to_string())),
                        }
                    }
                    let action = match action_word.as_str() {
                        "menu" => ClientAction::Menu { listing },
                        "info" => ClientAction::Info { listing },
                        "listings" => ClientAction::Listings,
                        _ => ClientAction::Stats { text },
                    };
                    Ok(Command::Client { addr, action })
                }
                "publish" | "retire" => {
                    let mut listing: Option<String> = None;
                    while let Some(flag) = iter.next() {
                        match flag.as_str() {
                            "--addr" => addr = take_value(&mut iter, "--addr")?,
                            "--listing" => listing = Some(take_value(&mut iter, "--listing")?),
                            other => return Err(ParseError::UnknownFlag(other.to_string())),
                        }
                    }
                    let listing =
                        listing.ok_or_else(|| ParseError::MissingValue("--listing".to_string()))?;
                    let action = if action_word == "publish" {
                        ClientAction::Publish { listing }
                    } else {
                        ClientAction::Retire { listing }
                    };
                    Ok(Command::Client { addr, action })
                }
                "account" => {
                    let buyer_word = iter
                        .next()
                        .ok_or_else(|| ParseError::MissingValue("account BUYER".to_string()))?;
                    let buyer: u64 = buyer_word.parse().map_err(|_| ParseError::BadValue {
                        flag: "account BUYER".to_string(),
                        value: buyer_word,
                    })?;
                    let mut listing: Option<String> = None;
                    while let Some(flag) = iter.next() {
                        match flag.as_str() {
                            "--addr" => addr = take_value(&mut iter, "--addr")?,
                            "--listing" => listing = Some(take_value(&mut iter, "--listing")?),
                            other => return Err(ParseError::UnknownFlag(other.to_string())),
                        }
                    }
                    Ok(Command::Client {
                        addr,
                        action: ClientAction::Account { buyer, listing },
                    })
                }
                "buy" => {
                    let mut request: Option<BuyRequest> = None;
                    let mut listing: Option<String> = None;
                    let mut buyer: Option<u64> = None;
                    let set = |r: BuyRequest, request: &mut Option<BuyRequest>| {
                        if request.is_some() {
                            Err(ParseError::AmbiguousBuyRequest)
                        } else {
                            *request = Some(r);
                            Ok(())
                        }
                    };
                    while let Some(flag) = iter.next() {
                        match flag.as_str() {
                            "--addr" => addr = take_value(&mut iter, "--addr")?,
                            "--listing" => listing = Some(take_value(&mut iter, "--listing")?),
                            "--buyer" => buyer = Some(parse_num(&mut iter, "--buyer")?),
                            "--error-budget" => {
                                let e = parse_num(&mut iter, "--error-budget")?;
                                set(BuyRequest::ErrorBudget(e), &mut request)?;
                            }
                            "--price-budget" => {
                                let p = parse_num(&mut iter, "--price-budget")?;
                                set(BuyRequest::PriceBudget(p), &mut request)?;
                            }
                            "--at" => {
                                let x = parse_num(&mut iter, "--at")?;
                                set(BuyRequest::AtInverseNcp(x), &mut request)?;
                            }
                            other => return Err(ParseError::UnknownFlag(other.to_string())),
                        }
                    }
                    let request = request.ok_or(ParseError::AmbiguousBuyRequest)?;
                    Ok(Command::Client {
                        addr,
                        action: ClientAction::Buy {
                            request,
                            listing,
                            buyer,
                        },
                    })
                }
                "load" => {
                    let mut threads = 4usize;
                    let mut requests = 64usize;
                    let mut buy = false;
                    let mut retries = 0u32;
                    let mut mix: Vec<(String, u32)> = Vec::new();
                    let mut pipeline = 1usize;
                    let mut batch = 1usize;
                    let mut buyer: Option<u64> = None;
                    while let Some(flag) = iter.next() {
                        match flag.as_str() {
                            "--addr" => addr = take_value(&mut iter, "--addr")?,
                            "--threads" => threads = parse_num(&mut iter, "--threads")?,
                            "--requests" => requests = parse_num(&mut iter, "--requests")?,
                            "--buy" => buy = true,
                            "--busy-retries" => retries = parse_num(&mut iter, "--busy-retries")?,
                            "--mix" => mix = parse_mix(&take_value(&mut iter, "--mix")?)?,
                            "--pipeline" => pipeline = parse_num(&mut iter, "--pipeline")?,
                            "--batch" => batch = parse_num(&mut iter, "--batch")?,
                            "--buyer" => buyer = Some(parse_num(&mut iter, "--buyer")?),
                            other => return Err(ParseError::UnknownFlag(other.to_string())),
                        }
                    }
                    Ok(Command::Client {
                        addr,
                        action: ClientAction::Load {
                            threads,
                            requests,
                            buy,
                            retries,
                            mix,
                            pipeline,
                            batch,
                            buyer,
                        },
                    })
                }
                other => Err(ParseError::UnknownCommand(format!("client {other}"))),
            }
        }
        "sim" => {
            let action_word = iter.next().ok_or(ParseError::MissingSimAction)?;
            match action_word.as_str() {
                "run" => {
                    let mut scenario = "baseline".to_string();
                    let mut file: Option<String> = None;
                    let mut seed = 7u64;
                    let mut out: Option<String> = None;
                    while let Some(flag) = iter.next() {
                        match flag.as_str() {
                            "--scenario" => scenario = take_value(&mut iter, "--scenario")?,
                            "--file" => file = Some(take_value(&mut iter, "--file")?),
                            "--seed" => seed = parse_num(&mut iter, "--seed")?,
                            "--out" => out = Some(take_value(&mut iter, "--out")?),
                            other => return Err(ParseError::UnknownFlag(other.to_string())),
                        }
                    }
                    Ok(Command::Sim {
                        action: SimAction::Run {
                            scenario,
                            file,
                            seed,
                            out,
                        },
                    })
                }
                "report" => {
                    let file = iter
                        .next()
                        .ok_or_else(|| ParseError::MissingValue("sim report FILE".to_string()))?;
                    if let Some(extra) = iter.next() {
                        return Err(ParseError::UnknownFlag(extra));
                    }
                    Ok(Command::Sim {
                        action: SimAction::Report { file },
                    })
                }
                "scenarios" => Ok(Command::Sim {
                    action: SimAction::Scenarios,
                }),
                other => Err(ParseError::UnknownCommand(format!("sim {other}"))),
            }
        }
        other => Err(ParseError::UnknownCommand(other.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, ParseError> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn demo_defaults_and_flags() {
        assert_eq!(
            parse(&["demo"]).unwrap(),
            Command::Demo {
                dataset: "Simulated1".into(),
                seed: 7
            }
        );
        assert_eq!(
            parse(&["demo", "--dataset", "CASP", "--seed", "42"]).unwrap(),
            Command::Demo {
                dataset: "CASP".into(),
                seed: 42
            }
        );
    }

    #[test]
    fn price_flags() {
        let c = parse(&[
            "price", "--value", "convex", "--demand", "bimodal", "--points", "8",
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Price {
                value: "convex".into(),
                demand: "bimodal".into(),
                points: 8
            }
        );
    }

    #[test]
    fn buy_requires_exactly_one_request() {
        assert_eq!(parse(&["buy"]), Err(ParseError::AmbiguousBuyRequest));
        assert_eq!(
            parse(&["buy", "--error-budget", "0.1", "--at", "5"]),
            Err(ParseError::AmbiguousBuyRequest)
        );
        assert_eq!(
            parse(&["buy", "--price-budget", "30"]).unwrap(),
            Command::Buy {
                dataset: "Simulated1".into(),
                request: BuyRequest::PriceBudget(30.0),
                metric: "square".into(),
                seed: 7
            }
        );
    }

    #[test]
    fn buy_metric_flag() {
        assert_eq!(
            parse(&[
                "buy",
                "--error-budget",
                "0.2",
                "--dataset",
                "SUSY",
                "--metric",
                "zero_one",
            ])
            .unwrap(),
            Command::Buy {
                dataset: "SUSY".into(),
                request: BuyRequest::ErrorBudget(0.2),
                metric: "zero_one".into(),
                seed: 7
            }
        );
    }

    #[test]
    fn attack_flags() {
        assert_eq!(
            parse(&["attack", "--naive", "--points", "6"]).unwrap(),
            Command::Attack {
                value: "convex".into(),
                points: 6,
                naive: true
            }
        );
    }

    #[test]
    fn fairness_and_curve_flags() {
        assert_eq!(
            parse(&["fairness", "--tau", "0.9", "--points", "30"]).unwrap(),
            Command::Fairness {
                value: "convex".into(),
                points: 30,
                tau: Some(0.9)
            }
        );
        assert_eq!(
            parse(&["curve", "--dataset", "SUSY", "--samples", "40"]).unwrap(),
            Command::Curve {
                dataset: "SUSY".into(),
                samples: 40,
                seed: 7
            }
        );
    }

    #[test]
    fn serve_defaults_and_flags() {
        assert_eq!(
            parse(&["serve"]).unwrap(),
            Command::Serve {
                addr: DEFAULT_ADDR.into(),
                datasets: vec!["Simulated1".into()],
                metric: "square".into(),
                seed: 7,
                shards: 2,
                workers: 2,
                queue: 64,
                journal: None,
                journal_dir: None,
                buyer_budget: None
            }
        );
        assert_eq!(
            parse(&[
                "serve",
                "--addr",
                "0.0.0.0:9000",
                "--dataset",
                "CASP",
                "--shards",
                "4",
                "--workers",
                "3",
                "--queue",
                "8",
                "--seed",
                "11",
            ])
            .unwrap(),
            Command::Serve {
                addr: "0.0.0.0:9000".into(),
                datasets: vec!["CASP".into()],
                metric: "square".into(),
                seed: 11,
                shards: 4,
                workers: 3,
                queue: 8,
                journal: None,
                journal_dir: None,
                buyer_budget: None
            }
        );
    }

    #[test]
    fn serve_repeats_datasets_and_takes_a_journal_dir() {
        let parsed = parse(&[
            "serve",
            "--dataset",
            "Simulated1",
            "--dataset",
            "CASP",
            "--dataset",
            "SUSY",
            "--journal-dir",
            "/tmp/market",
        ])
        .unwrap();
        match parsed {
            Command::Serve {
                datasets,
                journal_dir,
                journal,
                ..
            } => {
                assert_eq!(datasets, vec!["Simulated1", "CASP", "SUSY"]);
                assert_eq!(journal_dir.as_deref(), Some("/tmp/market"));
                assert_eq!(journal, None);
            }
            other => panic!("expected serve, got {other:?}"),
        }
        assert_eq!(
            parse(&["serve", "--journal-dir"]),
            Err(ParseError::MissingValue("--journal-dir".into()))
        );
    }

    #[test]
    fn client_actions() {
        assert_eq!(
            parse(&["client", "menu"]).unwrap(),
            Command::Client {
                addr: DEFAULT_ADDR.into(),
                action: ClientAction::Menu { listing: None }
            }
        );
        assert_eq!(
            parse(&["client", "stats", "--addr", "10.0.0.1:7"]).unwrap(),
            Command::Client {
                addr: "10.0.0.1:7".into(),
                action: ClientAction::Stats { text: false }
            }
        );
        assert_eq!(
            parse(&["client", "buy", "--at", "25"]).unwrap(),
            Command::Client {
                addr: DEFAULT_ADDR.into(),
                action: ClientAction::Buy {
                    request: BuyRequest::AtInverseNcp(25.0),
                    listing: None,
                    buyer: None
                }
            }
        );
        assert_eq!(
            parse(&[
                "client",
                "load",
                "--threads",
                "8",
                "--requests",
                "10",
                "--buy"
            ])
            .unwrap(),
            Command::Client {
                addr: DEFAULT_ADDR.into(),
                action: ClientAction::Load {
                    threads: 8,
                    requests: 10,
                    buy: true,
                    retries: 0,
                    mix: vec![],
                    pipeline: 1,
                    batch: 1,
                    buyer: None
                }
            }
        );
    }

    #[test]
    fn client_listing_routing_flags() {
        assert_eq!(
            parse(&["client", "menu", "--listing", "CASP"]).unwrap(),
            Command::Client {
                addr: DEFAULT_ADDR.into(),
                action: ClientAction::Menu {
                    listing: Some("CASP".into())
                }
            }
        );
        assert_eq!(
            parse(&["client", "buy", "--at", "25", "--listing", "SUSY"]).unwrap(),
            Command::Client {
                addr: DEFAULT_ADDR.into(),
                action: ClientAction::Buy {
                    request: BuyRequest::AtInverseNcp(25.0),
                    listing: Some("SUSY".into()),
                    buyer: None
                }
            }
        );
        assert_eq!(
            parse(&["client", "listings"]).unwrap(),
            Command::Client {
                addr: DEFAULT_ADDR.into(),
                action: ClientAction::Listings
            }
        );
        // stats and listings take no --listing flag.
        assert!(matches!(
            parse(&["client", "stats", "--listing", "x"]),
            Err(ParseError::UnknownFlag(_))
        ));
        assert!(matches!(
            parse(&["client", "listings", "--listing", "x"]),
            Err(ParseError::UnknownFlag(_))
        ));
    }

    #[test]
    fn client_publish_and_retire_require_a_listing() {
        assert_eq!(
            parse(&["client", "publish", "--listing", "CASP"]).unwrap(),
            Command::Client {
                addr: DEFAULT_ADDR.into(),
                action: ClientAction::Publish {
                    listing: "CASP".into()
                }
            }
        );
        assert_eq!(
            parse(&["client", "retire", "--listing", "CASP", "--addr", "h:1"]).unwrap(),
            Command::Client {
                addr: "h:1".into(),
                action: ClientAction::Retire {
                    listing: "CASP".into()
                }
            }
        );
        assert_eq!(
            parse(&["client", "publish"]),
            Err(ParseError::MissingValue("--listing".into()))
        );
    }

    #[test]
    fn client_load_mix_parses_weights() {
        assert_eq!(
            parse(&["client", "load", "--mix", "a=3, b=1,c"]).unwrap(),
            Command::Client {
                addr: DEFAULT_ADDR.into(),
                action: ClientAction::Load {
                    threads: 4,
                    requests: 64,
                    buy: false,
                    retries: 0,
                    mix: vec![("a".into(), 3), ("b".into(), 1), ("c".into(), 1)],
                    pipeline: 1,
                    batch: 1,
                    buyer: None
                }
            }
        );
        assert!(matches!(
            parse(&["client", "load", "--mix", "a=x"]),
            Err(ParseError::BadValue { .. })
        ));
        assert!(matches!(
            parse(&["client", "load", "--mix", ""]),
            Err(ParseError::BadValue { .. })
        ));
    }

    #[test]
    fn serve_journal_flag() {
        assert_eq!(
            parse(&["serve", "--journal", "/tmp/sales.journal"]).unwrap(),
            Command::Serve {
                addr: DEFAULT_ADDR.into(),
                datasets: vec!["Simulated1".into()],
                metric: "square".into(),
                seed: 7,
                shards: 2,
                workers: 2,
                queue: 64,
                journal: Some("/tmp/sales.journal".into()),
                journal_dir: None,
                buyer_budget: None
            }
        );
        assert_eq!(
            parse(&["serve", "--journal"]),
            Err(ParseError::MissingValue("--journal".into()))
        );
    }

    #[test]
    fn serve_refuses_a_journal_next_to_a_journal_dir() {
        for args in [
            ["serve", "--journal", "j.log", "--journal-dir", "d"],
            ["serve", "--journal-dir", "d", "--journal", "j.log"],
        ] {
            assert_eq!(parse(&args), Err(ParseError::AmbiguousJournal));
        }
    }

    #[test]
    fn client_stats_text_and_load_retries() {
        assert_eq!(
            parse(&["client", "stats", "--text"]).unwrap(),
            Command::Client {
                addr: DEFAULT_ADDR.into(),
                action: ClientAction::Stats { text: true }
            }
        );
        // --text is a stats-only flag.
        assert!(matches!(
            parse(&["client", "menu", "--text"]),
            Err(ParseError::UnknownFlag(_))
        ));
        assert_eq!(
            parse(&["client", "load", "--busy-retries", "5"]).unwrap(),
            Command::Client {
                addr: DEFAULT_ADDR.into(),
                action: ClientAction::Load {
                    threads: 4,
                    requests: 64,
                    buy: false,
                    retries: 5,
                    mix: vec![],
                    pipeline: 1,
                    batch: 1,
                    buyer: None
                }
            }
        );
    }

    #[test]
    fn client_error_cases() {
        assert_eq!(parse(&["client"]), Err(ParseError::MissingClientAction));
        assert_eq!(
            parse(&["client", "buy"]),
            Err(ParseError::AmbiguousBuyRequest)
        );
        assert_eq!(
            parse(&["client", "buy", "--at", "5", "--price-budget", "3"]),
            Err(ParseError::AmbiguousBuyRequest)
        );
        assert!(matches!(
            parse(&["client", "frobnicate"]),
            Err(ParseError::UnknownCommand(_))
        ));
        assert!(matches!(
            parse(&["serve", "--bogus"]),
            Err(ParseError::UnknownFlag(_))
        ));
    }

    #[test]
    fn client_account_and_buyer_flags() {
        assert_eq!(
            parse(&["client", "account", "42"]).unwrap(),
            Command::Client {
                addr: DEFAULT_ADDR.into(),
                action: ClientAction::Account {
                    buyer: 42,
                    listing: None
                }
            }
        );
        assert_eq!(
            parse(&[
                "client",
                "account",
                "7",
                "--listing",
                "CASP",
                "--addr",
                "h:1"
            ])
            .unwrap(),
            Command::Client {
                addr: "h:1".into(),
                action: ClientAction::Account {
                    buyer: 7,
                    listing: Some("CASP".into())
                }
            }
        );
        assert!(matches!(
            parse(&["client", "account"]),
            Err(ParseError::MissingValue(_))
        ));
        assert!(matches!(
            parse(&["client", "account", "nope"]),
            Err(ParseError::BadValue { .. })
        ));
        assert_eq!(
            parse(&["client", "buy", "--at", "25", "--buyer", "9"]).unwrap(),
            Command::Client {
                addr: DEFAULT_ADDR.into(),
                action: ClientAction::Buy {
                    request: BuyRequest::AtInverseNcp(25.0),
                    listing: None,
                    buyer: Some(9)
                }
            }
        );
        match parse(&["client", "load", "--buy", "--buyer", "3"]).unwrap() {
            Command::Client {
                action: ClientAction::Load { buyer, .. },
                ..
            } => assert_eq!(buyer, Some(3)),
            other => panic!("expected load, got {other:?}"),
        }
        match parse(&["serve", "--buyer-budget", "150"]).unwrap() {
            Command::Serve { buyer_budget, .. } => assert_eq!(buyer_budget, Some(150.0)),
            other => panic!("expected serve, got {other:?}"),
        }
        assert!(matches!(
            parse(&["serve", "--buyer-budget", "lots"]),
            Err(ParseError::BadValue { .. })
        ));
    }

    #[test]
    fn sim_run_defaults_and_flags() {
        assert_eq!(
            parse(&["sim", "run"]).unwrap(),
            Command::Sim {
                action: SimAction::Run {
                    scenario: "baseline".into(),
                    file: None,
                    seed: 7,
                    out: None,
                }
            }
        );
        assert_eq!(
            parse(&[
                "sim",
                "run",
                "--scenario",
                "shock",
                "--seed",
                "42",
                "--out",
                "journal.jsonl"
            ])
            .unwrap(),
            Command::Sim {
                action: SimAction::Run {
                    scenario: "shock".into(),
                    file: None,
                    seed: 42,
                    out: Some("journal.jsonl".into()),
                }
            }
        );
        assert_eq!(
            parse(&["sim", "run", "--file", "custom.scenario"]).unwrap(),
            Command::Sim {
                action: SimAction::Run {
                    scenario: "baseline".into(),
                    file: Some("custom.scenario".into()),
                    seed: 7,
                    out: None,
                }
            }
        );
    }

    #[test]
    fn sim_report_and_scenarios() {
        assert_eq!(
            parse(&["sim", "report", "journal.jsonl"]).unwrap(),
            Command::Sim {
                action: SimAction::Report {
                    file: "journal.jsonl".into()
                }
            }
        );
        assert_eq!(
            parse(&["sim", "scenarios"]).unwrap(),
            Command::Sim {
                action: SimAction::Scenarios
            }
        );
        assert_eq!(parse(&["sim"]), Err(ParseError::MissingSimAction));
        assert!(matches!(
            parse(&["sim", "report"]),
            Err(ParseError::MissingValue(_))
        ));
        assert!(matches!(
            parse(&["sim", "frobnicate"]),
            Err(ParseError::UnknownCommand(_))
        ));
        assert!(matches!(
            parse(&["sim", "run", "--bogus"]),
            Err(ParseError::UnknownFlag(_))
        ));
    }

    #[test]
    fn error_cases() {
        assert_eq!(parse(&[]), Err(ParseError::MissingCommand));
        assert!(matches!(
            parse(&["frobnicate"]),
            Err(ParseError::UnknownCommand(_))
        ));
        assert!(matches!(
            parse(&["demo", "--bogus"]),
            Err(ParseError::UnknownFlag(_))
        ));
        assert!(matches!(
            parse(&["demo", "--seed"]),
            Err(ParseError::MissingValue(_))
        ));
        assert!(matches!(
            parse(&["demo", "--seed", "NaNsense"]),
            Err(ParseError::BadValue { .. })
        ));
        assert_eq!(parse(&["help"]).unwrap(), Command::Help);
    }
}
