//! `argus-lint repl`: a shell over the guardian world — poke at atomic
//! actions, crash nodes, and watch recovery happen. One command a line on
//! stdin, one reply a line (`help` lists them).

use argus::core::HousekeepingMode;
use argus::guardian::{RsKind, World};
use argus::objects::{ActionId, GuardianId, Value};
use std::error::Error;
use std::io::{BufRead, IsTerminal, Write};

/// The command list, with the organizations and their housekeeping modes
/// as `RsKind` names them.
fn help() -> String {
    let kinds = RsKind::ALL.map(RsKind::name).join("|");
    let modes = RsKind::ALL.map(|kind| {
        let modes = kind.housekeeping_modes().iter();
        let modes: Vec<_> = modes.map(|m| format!("{m:?}").to_lowercase()).collect();
        format!("{}: {}", kind.name(), modes.join(", "))
    });
    format!(
        "\
commands:
  spawn <{kinds}> create a guardian
  set <G> <name> <value>           bind a stable variable (auto-commits unless
                                   inside a begin/commit block); value is an
                                   integer or arbitrary text
  get <G> <name>                   read the committed value
  begin <G>                        start an explicit action (spans guardians)
  commit                           two-phase commit the open action
  abort                            locally abort the open action
  crash <G>                        crash a guardian (volatile state vanishes)
  restart <G>                      recover a guardian from its stable log
  housekeep <G> <mode>             reorganize the log; the modes are
                                   {}
  stats <G>                        log + device statistics
  help                             this text
  quit                             exit",
        modes.join("\n                                   ")
    )
}

struct Repl {
    world: World,
    open: Option<ActionId>,
}

fn gid(token: &str) -> Result<GuardianId, &'static str> {
    let digits = token.strip_prefix('G').unwrap_or(token);
    digits
        .parse()
        .map(GuardianId)
        .map_err(|_| "bad guardian id")
}

impl Repl {
    fn run_line(&mut self, line: &str) -> Result<Option<String>, Box<dyn Error>> {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let reply = match tokens.as_slice() {
            [] | ["#", ..] => return Ok(None),
            ["help"] => help(),
            ["quit"] | ["exit"] => "bye".into(),
            ["spawn", kind] => {
                let kind: RsKind = kind.parse()?;
                let g = self.world.add_guardian(kind)?;
                format!("spawned {g} ({kind:?})")
            }
            ["set", g, name, rest @ ..] if !rest.is_empty() => {
                let g = gid(g)?;
                let joined = rest.join(" ");
                let value = joined.parse().map_or(Value::Str(joined), Value::Int);
                match self.open {
                    Some(aid) => {
                        self.world.set_stable(g, aid, name, value)?;
                        format!("{name} staged under {aid}")
                    }
                    None => {
                        let aid = self.world.begin(g)?;
                        self.world.set_stable(g, aid, name, value)?;
                        let outcome = self.world.commit(aid)?;
                        format!("{name} set; {aid} → {outcome:?}")
                    }
                }
            }
            ["get", g, name] => match self.world.guardian(gid(g)?)?.stable_value(name) {
                Some(v) => format!("{name} = {v}"),
                None => format!("{name} is unset"),
            },
            ["begin", g] => {
                if self.open.is_some() {
                    return Err("an action is already open; commit or abort it first".into());
                }
                let g = gid(g)?;
                let aid = self.world.begin(g)?;
                self.open = Some(aid);
                format!("began {aid} (coordinator {g})")
            }
            ["commit"] => {
                let aid = self.open.take().ok_or("no open action")?;
                format!("{aid} → {:?}", self.world.commit(aid)?)
            }
            ["abort"] => {
                let aid = self.open.take().ok_or("no open action")?;
                self.world.abort_local(aid);
                format!("{aid} aborted locally")
            }
            ["crash", g] => {
                let g = gid(g)?;
                self.world.crash(g);
                format!("{g} is down; its volatile state is gone")
            }
            ["restart", g] => {
                let g = gid(g)?;
                let outcome = self.world.restart(g)?;
                format!(
                    "{g} recovered: {} objects restored, {} entries examined, {} in doubt",
                    outcome.ot.len(),
                    outcome.entries_examined,
                    outcome.pt.prepared_actions().len()
                )
            }
            ["housekeep", g, mode] => {
                let g = gid(g)?;
                let mode = match *mode {
                    "compact" | "compaction" => HousekeepingMode::Compaction,
                    "snapshot" => HousekeepingMode::Snapshot,
                    other => return Err(format!("unknown mode {other:?}").into()),
                };
                self.world.housekeep(g, mode)?;
                let entries = self.world.guardian(g)?.log_stats().entries;
                format!("housekept {g}: log is now {entries} entries")
            }
            ["stats", g] => {
                let g = gid(g)?;
                let stats = self.world.guardian(g)?.log_stats();
                format!(
                    "{g}: {} log entries, {} bytes; device {}",
                    stats.entries, stats.bytes, stats.device
                )
            }
            _ => return Err("unrecognized command; try `help`".into()),
        };
        Ok(Some(reply))
    }
}

/// Runs the shell on stdin until `quit` or the end of input; a terminal
/// gets a banner and a prompt.
pub fn run() {
    let mut repl = Repl {
        world: World::fast(),
        open: None,
    };
    let interactive = std::io::stdin().is_terminal();
    if interactive {
        println!("argus repl — reliable object storage to support atomic actions");
        println!("type `help` for commands\n");
    }
    let mut lines = std::io::stdin().lock().lines();
    loop {
        if interactive {
            print!("argus> ");
            std::io::stdout().flush().ok();
        }
        let line = match lines.next() {
            None => break,
            Some(Ok(line)) => line,
            Some(Err(e)) => {
                eprintln!("read error: {e}");
                break;
            }
        };
        match repl.run_line(line.trim()) {
            Ok(Some(msg)) => {
                println!("{msg}");
                if msg == "bye" {
                    break;
                }
            }
            Ok(None) => {}
            Err(e) => println!("error: {e}"),
        }
    }
}
