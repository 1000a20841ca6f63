//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a detail line (hardware-and-settings stamp, digests, sample
//! counts) and, last, the result line: one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

use std::process::ExitCode;

use ips_obs::Json;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match ips_perfbench::run(&args.workload, args.seed, args.seconds as f64, args.trace) {
        Ok(rep) => {
            let mut detail = Json::object();
            detail.insert(
                "stamp",
                ips_perfbench::report::stamp(
                    &args.workload,
                    args.seed,
                    args.seconds,
                    args.trace,
                    ips_perfbench::offered_rate(&args.workload),
                ),
            );
            detail.insert("detail", rep.detail.clone());
            println!("{}", detail.to_string_compact());
            println!("{}", rep.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
