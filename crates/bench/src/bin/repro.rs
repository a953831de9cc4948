//! Regenerates every table and figure of the EdgeBERT evaluation.
//!
//! ```text
//! repro [--scale test|paper] [experiment...]
//! ```
//!
//! With no experiment arguments, all of them run in paper order. At
//! `--scale paper` (the default) the four task models are trained at the
//! `AlbertConfig::small` scale; `--scale test` uses the tiny test setup
//! for a fast smoke run.

use edgebert::clock::Clock;
use edgebert::experiments::{fig10, fig11, fig7, fig8, fig9, table1, table2, table3, table4};
use edgebert::pipeline::{Scale, TaskArtifacts};
use edgebert_tasks::Task;

const ALL: [&str; 9] = [
    "table1", "table2", "table3", "table4", "fig7", "fig8", "fig9", "fig10", "fig11",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Paper;
    let mut wanted: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = match args.get(i).map(String::as_str) {
                    Some("test") => Scale::Test,
                    Some("paper") | None => Scale::Paper,
                    Some(other) => {
                        eprintln!("unknown scale '{other}', expected test|paper");
                        std::process::exit(2);
                    }
                };
            }
            "--help" | "-h" => {
                eprintln!("usage: repro [--scale test|paper] [{}]", ALL.join("|"));
                return;
            }
            exp => wanted.push(exp.to_string()),
        }
        i += 1;
    }
    if wanted.is_empty() {
        wanted = ALL.iter().map(|s| s.to_string()).collect();
    }
    for w in &wanted {
        if !ALL.contains(&w.as_str()) {
            eprintln!(
                "unknown experiment '{w}', expected one of {}",
                ALL.join(", ")
            );
            std::process::exit(2);
        }
    }

    let needs_artifacts = wanted.iter().any(|w| {
        matches!(
            w.as_str(),
            "table1" | "table2" | "table3" | "fig7" | "fig8" | "fig9"
        )
    });

    let artifacts: Vec<TaskArtifacts> = if needs_artifacts {
        println!(
            "== building task artifacts (scale {scale:?}; cache: {}) ==",
            TaskArtifacts::artifact_dir().display()
        );
        Task::all()
            .iter()
            .enumerate()
            .map(|(i, &task)| {
                let t0 = Clock::start();
                // Disk-cached by (task, scale, seed): repeat runs load in
                // milliseconds instead of retraining. Point
                // EDGEBERT_ARTIFACT_DIR elsewhere (or wipe the dir) to
                // force a rebuild.
                let art = TaskArtifacts::cached(task, scale, 0xED6E + i as u64);
                println!(
                    "  {task}: teacher {:.1}% student {:.1}% (enc sparsity {:.0}%, emb sparsity {:.0}%, {} heads off) [{:.1}s]",
                    art.summary.teacher_accuracy * 100.0,
                    art.summary.student_accuracy * 100.0,
                    art.summary.encoder_sparsity * 100.0,
                    art.summary.embedding_sparsity * 100.0,
                    art.summary.heads_off,
                    t0.now_s(),
                );
                art
            })
            .collect()
    } else {
        Vec::new()
    };

    let (trials, eval_size) = match scale {
        Scale::Test => (20, 16),
        Scale::Paper => (100, 48),
    };

    for w in &wanted {
        let t0 = Clock::start();
        println!("\n==================== {w} ====================");
        match w.as_str() {
            "table1" => println!("{}", table1::render(&table1::run(&artifacts))),
            "table2" => println!(
                "{}",
                table2::render(&table2::run(&artifacts, trials, eval_size, 0x7AB2))
            ),
            "table3" => println!("{}", table3::render(&table3::run(&artifacts))),
            "table4" => println!("{}", table4::render(&table4::run())),
            "fig7" => {
                // Use the task with the widest exit spread so the trace
                // actually exercises the DVFS voltage steps.
                let art = artifacts
                    .iter()
                    .max_by(|a, b| {
                        a.calib_conv[0]
                            .avg_exit_layer
                            .total_cmp(&b.calib_conv[0].avg_exit_layer)
                    })
                    .expect("artifacts built for fig7");
                let engine = art.engine_at(50e-3, edgebert::DropTarget::OnePercent, true);
                println!("{}", fig7::render(&fig7::run(art, &engine, 3)));
            }
            "fig8" => println!("{}", fig8::render(&fig8::run(&artifacts))),
            "fig9" => println!("{}", fig9::render(&fig9::run(&artifacts))),
            "fig10" => println!("{}", fig10::render(&fig10::run())),
            "fig11" => println!("{}", fig11::render(&fig11::run())),
            _ => unreachable!("validated above"),
        }
        println!("[{w} took {:.1}s]", t0.now_s());
    }
}
