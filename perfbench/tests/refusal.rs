//! The binary refuses to measure a program that `ARL_*` knobs changed,
//! and rejects a malformed command line, before doing any work.

use std::process::Command;

fn bench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_arl-perfbench"))
}

#[test]
fn any_arl_variable_stops_the_run_without_a_result() {
    for (knob, value) in [
        ("ARL_CORE", "legacy"),
        ("ARL_TRACE_COMPILED", "0"),
        ("ARL_X", ""),
    ] {
        let out = bench()
            .args(["--workload", "figure4", "--seconds", "1"])
            .env(knob, value)
            .output()
            .expect("benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{knob} must be refused");
        assert!(out.stdout.is_empty(), "no result is printed under {knob}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(knob), "the refusal names {knob}: {err}");
    }
}

#[test]
fn malformed_command_lines_are_rejected() {
    for args in [
        &["--seed", "1"][..],
        &["--workload", "figure9"],
        &["--workload", "figure8", "--trace", "yes"],
    ] {
        let out = bench().args(args).output().expect("benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
