//! The `openoptics-ctl` binary: validate, run, resume and serve scenarios.
//!
//! This command layer is the only part of the control plane that touches
//! the filesystem — scenario and checkpoint documents are read and written
//! here, then handed to the fs-free library underneath.
//!
//! ```text
//! openoptics-ctl check <scenario.json>
//! openoptics-ctl run <scenario.json> [--save-at NS --checkpoint FILE]
//! openoptics-ctl resume <checkpoint.json> [--save-at NS --checkpoint FILE]
//! openoptics-ctl serve <addr>
//! ```

use std::process::ExitCode;

use openoptics_ctl::{Checkpoint, Scenario, Session};

fn main() -> ExitCode {
    #[expect(clippy::disallowed_methods, reason = "the CLI boundary: argv selects the command")]
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter().map(String::as_str);
    let code = match it.next() {
        Some("check") => cmd_check(it),
        Some("run") => cmd_run(it),
        Some("resume") => cmd_resume(it),
        Some("serve") => cmd_serve(it),
        Some("--help") | Some("-h") | None => {
            eprint!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match code {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("openoptics-ctl: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage: openoptics-ctl <command> [args]

commands:
  check <scenario.json>                 validate a scenario, print the normalized form
  run <scenario.json>                   deploy and run to stop_ns, print the export bundle
      [--save-at NS --checkpoint FILE]  checkpoint mid-run at sim time NS
  resume <checkpoint.json>              restore by replay, run on to stop_ns, print the bundle
      [--save-at NS --checkpoint FILE]
  serve <addr>                          line-delimited JSON-RPC server (e.g. 127.0.0.1:9178)
";

/// Flags shared by `run` and `resume`.
struct RunFlags {
    save_at: Option<u64>,
    checkpoint: Option<String>,
}

fn parse_flags<'a>(it: impl Iterator<Item = &'a str>) -> Result<RunFlags, String> {
    let mut flags = RunFlags { save_at: None, checkpoint: None };
    let mut it = it.peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&'a str, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag {
            "--save-at" => {
                flags.save_at =
                    Some(value("--save-at")?.parse().map_err(|e| format!("--save-at: {e}"))?)
            }
            "--checkpoint" => flags.checkpoint = Some(value("--checkpoint")?.to_string()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if flags.save_at.is_some() != flags.checkpoint.is_some() {
        return Err("--save-at and --checkpoint must be given together".to_string());
    }
    Ok(flags)
}

fn read(path: &str) -> Result<String, String> {
    #[expect(clippy::disallowed_methods, reason = "the CLI boundary: the document is the input")]
    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
}

fn cmd_check<'a>(mut it: impl Iterator<Item = &'a str>) -> Result<(), String> {
    let path = it.next().ok_or("check needs a scenario file")?;
    let scenario = Scenario::parse(&read(path)?).map_err(|e| e.to_string())?;
    println!("{}", scenario.to_json());
    Ok(())
}

fn cmd_run<'a>(mut it: impl Iterator<Item = &'a str>) -> Result<(), String> {
    let path = it.next().ok_or("run needs a scenario file")?;
    let flags = parse_flags(it)?;
    let scenario = Scenario::parse(&read(path)?).map_err(|e| e.to_string())?;
    let session = Session::new(scenario).map_err(|e| e.to_string())?;
    drive(session, &flags)
}

fn cmd_resume<'a>(mut it: impl Iterator<Item = &'a str>) -> Result<(), String> {
    let path = it.next().ok_or("resume needs a checkpoint file")?;
    let flags = parse_flags(it)?;
    let ckpt = Checkpoint::parse(&read(path)?).map_err(|e| e.to_string())?;
    let session = Session::restore(ckpt, None).map_err(|e| e.to_string())?;
    drive(session, &flags)
}

/// Run to the scenario's stop time (checkpointing on the way through if
/// asked) and print the export bundle.
fn drive(mut session: Session, flags: &RunFlags) -> Result<(), String> {
    if let (Some(at), Some(path)) = (flags.save_at, &flags.checkpoint) {
        session.run_until(at);
        let doc = session.checkpoint().to_json();
        #[expect(clippy::disallowed_methods, reason = "the CLI boundary: writing the checkpoint")]
        std::fs::write(path, doc + "\n").map_err(|e| format!("writing {path}: {e}"))?;
    }
    session.run_until(session.stop_ns());
    print!("{}", session.export_bundle());
    Ok(())
}

fn cmd_serve<'a>(mut it: impl Iterator<Item = &'a str>) -> Result<(), String> {
    let addr = it.next().ok_or("serve needs an address (e.g. 127.0.0.1:9178)")?;
    let flags = parse_flags(it)?;
    if flags.save_at.is_some() {
        return Err("--save-at only applies to run/resume".to_string());
    }
    eprintln!("openoptics-ctl: serving on {addr}");
    openoptics_ctl::serve(addr).map_err(|e| format!("serving {addr}: {e}"))
}
