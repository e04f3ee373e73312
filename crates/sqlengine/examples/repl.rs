//! A minimal SQL shell over the public API, for driving the engine by hand.
//!
//! `repl [PARALLELISM] [--vectorized on|off] [--trace] [--db PATH]`
//!
//! Reads stdin; a statement ends at a `;` that ends a line. A line holding
//! several statements (`BEGIN; …; COMMIT;`) runs as one script. `--trace`
//! samples every statement into `sys.trace_spans`; `--db` opens a durable
//! database (fsync per commit) instead of an in-memory one.

use std::io::BufRead;

use sqlengine::{Database, EngineConfig, StatementResult, SyncPolicy, TraceSampling};

fn main() {
    let mut config = EngineConfig::default().with_wal_sync(SyncPolicy::Always);
    let mut path = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--vectorized" => {
                config = config.with_vectorized(args.next().as_deref() != Some("off"));
            }
            "--trace" => {
                config = config.with_trace_sampling(TraceSampling::On { rate: 1.0, seed: 1 });
            }
            "--db" => path = args.next(),
            n => config = config.with_parallelism(n.parse().expect("parallelism must be a number")),
        }
    }
    let db = match path {
        Some(path) => Database::open(path, config).expect("open database"),
        None => Database::with_config(config),
    };

    let mut buffer = String::new();
    for line in std::io::stdin().lock().lines() {
        let line = line.expect("read stdin");
        buffer.push_str(&line);
        buffer.push('\n');
        if !line.trim_end().ends_with(';') {
            continue;
        }
        let sql = std::mem::take(&mut buffer);
        let sql = sql.trim().trim_end_matches(';');
        let result = if sql.contains(';') {
            db.execute_script(sql)
        } else {
            db.execute(sql)
        };
        match result {
            Ok(StatementResult::Rows(r)) => {
                println!("{}", r.columns.join("|"));
                for row in &r.rows {
                    let cells: Vec<String> = row.iter().map(ToString::to_string).collect();
                    println!("{}", cells.join("|"));
                }
            }
            Ok(StatementResult::Affected(n)) => println!("ok ({n})"),
            Err(e) => println!("error: {e}"),
        }
    }
}
