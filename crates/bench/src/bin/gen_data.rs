//! Export synthetic campaigns as CSV for external analysis stacks.
//!
//! ```text
//! gen-data [--city A|B|C|D|all] [--scale S] [--seed N] [--out DIR]
//!          [--format csv|json]
//! ```
//!
//! Writes `<city>_ookla.{csv,json}`, `<city>_mlab.*`, `<city>_mba.*` with
//! one row per measurement and the full context schema (platform, vendor,
//! access, band, RSSI, memory, loaded RTT, ground-truth tier). Usage
//! errors exit 2, `--help` exits 0, and a failed export exits 1.

use st_bench::cli::{self, CliError};
use st_datagen::{City, CityDataset};
use st_speedtest::CampaignStore;
use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Csv,
    Json,
}

struct Args {
    cities: Vec<City>,
    scale: f64,
    seed: u64,
    out: PathBuf,
    format: Format,
}

const USAGE: &str =
    "usage: gen-data [--city A|B|C|D|all] [--scale S] [--seed N] [--out DIR] [--format csv|json]";

fn parse_args() -> Result<Args, CliError> {
    let mut args = Args {
        cities: City::all().to_vec(),
        scale: 0.01,
        seed: 20220707,
        out: PathBuf::from("data-out"),
        format: Format::Csv,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| cli::next_value(&mut it, name);
        match flag.as_str() {
            "--city" => {
                args.cities = match value("--city")?.as_str() {
                    "A" => vec![City::A],
                    "B" => vec![City::B],
                    "C" => vec![City::C],
                    "D" => vec![City::D],
                    "all" => City::all().to_vec(),
                    other => return Err(CliError::Usage(format!("unknown city {other}"))),
                }
            }
            "--scale" => args.scale = cli::parse_scale("--scale", &value("--scale")?)?,
            "--seed" => args.seed = cli::parse_u64("--seed", &value("--seed")?)?,
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--format" => {
                args.format = match value("--format")?.as_str() {
                    "csv" => Format::Csv,
                    "json" => Format::Json,
                    other => return Err(CliError::Usage(format!("unknown format {other}"))),
                }
            }
            "--help" | "-h" => return Err(CliError::Help),
            other => return Err(CliError::Usage(format!("unknown flag {other}"))),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => return e.report(USAGE),
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("cannot create {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }

    for city in &args.cities {
        let ds = CityDataset::generate(*city, args.scale, args.seed);
        let tag = city.label().to_lowercase().replace('-', "_");
        for (suffix, ms) in [("ookla", &ds.ookla), ("mlab", &ds.mlab), ("mba", &ds.mba)] {
            let (path, body) = match args.format {
                Format::Csv => {
                    let frame = CampaignStore::from_measurements(ms).to_frame();
                    let body = match st_dataframe::csv::to_csv(&frame) {
                        Ok(b) => b,
                        Err(e) => {
                            eprintln!("cannot export {tag}_{suffix} as CSV: {e}");
                            return ExitCode::FAILURE;
                        }
                    };
                    (args.out.join(format!("{tag}_{suffix}.csv")), body)
                }
                Format::Json => (
                    args.out.join(format!("{tag}_{suffix}.json")),
                    serde_json::to_string_pretty(ms).expect("records serialize"),
                ),
            };
            if let Err(e) = std::fs::write(&path, body) {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {} ({} rows)", path.display(), ms.len());
        }
    }
    ExitCode::SUCCESS
}
