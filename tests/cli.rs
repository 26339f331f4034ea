//! End-to-end tests of the `spp` command-line binary.

use std::process::Command;

fn spp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_spp"))
}

fn write_pla(name: &str, text: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("spp-cli-test-{name}.pla"));
    std::fs::write(&path, text).expect("temp file writable");
    path
}

#[test]
fn list_names_benchmarks() {
    let out = spp().arg("list").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("adr4: 8 inputs, 5 outputs"));
    assert!(text.contains("life: 9 inputs, 1 outputs"));
}

#[test]
fn minimize_pla_to_spp() {
    let path = write_pla("xor", ".i 2\n.o 1\n01 1\n10 1\n.e\n");
    let out = spp().arg("minimize").arg(&path).output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("SPP 2 literals, 1 terms"), "{text}");
    assert!(text.contains("(x0⊕x1)"), "{text}");
}

#[test]
fn sp_flag_switches_to_two_level() {
    let path = write_pla("xor-sp", ".i 2\n.o 1\n01 1\n10 1\n.e\n");
    let out = spp().arg("minimize").arg(&path).arg("--sp").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("SP 4 literals, 2 terms"), "{text}");
}

#[test]
fn verilog_emission_contains_module() {
    let path = write_pla("xor-v", ".i 2\n.o 1\n01 1\n10 1\n.e\n");
    let out = spp()
        .arg("minimize")
        .arg(&path)
        .arg("--quiet")
        .arg("--verilog")
        .arg("parity")
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("module parity"), "{text}");
    assert!(text.contains("^"), "{text}");
    assert!(text.contains("endmodule"), "{text}");
}

#[test]
fn blif_emission_contains_model() {
    let path = write_pla("xor-b", ".i 2\n.o 1\n01 1\n10 1\n.e\n");
    let out = spp()
        .arg("minimize")
        .arg(&path)
        .arg("--quiet")
        .arg("--blif")
        .arg("parity")
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains(".model parity"), "{text}");
    assert!(text.contains(".end"), "{text}");
}

#[test]
fn bench_subcommand_minimizes_builtin() {
    let out = spp()
        .arg("bench")
        .arg("adr4")
        .arg("--heuristic")
        .arg("0")
        .arg("--quiet")
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("adr4[0]"), "{text}");
    assert!(text.contains("adr4[4]"), "{text}");
}

#[test]
fn unknown_benchmark_fails_with_hint() {
    let out = spp().arg("bench").arg("nope").output().expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown benchmark"), "{err}");
}

#[test]
fn bad_usage_fails() {
    let out = spp().output().expect("binary runs");
    assert!(!out.status.success());
    let out = spp().arg("minimize").output().expect("binary runs");
    assert!(!out.status.success());
    let out = spp().arg("frobnicate").output().expect("binary runs");
    assert!(!out.status.success());
}

#[test]
fn deadline_flag_degrades_gracefully() {
    // An already-expired deadline: the run must still exit successfully
    // with a verified best-so-far form (verification failure would exit
    // non-zero) and report the outcome on the summary line.
    let out = spp()
        .arg("bench")
        .arg("life")
        .arg("--deadline-ms")
        .arg("0")
        .arg("--quiet")
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("[deadline_exceeded]"), "{text}");
}

#[test]
fn progress_flag_prints_events_to_stderr() {
    let path = write_pla("xor-progress", ".i 2\n.o 1\n01 1\n10 1\n.e\n");
    let out = spp()
        .arg("minimize")
        .arg(&path)
        .arg("--progress")
        .arg("--quiet")
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("spp: "), "{err}");
    assert!(err.contains("generate"), "{err}");
    // The summary line itself is untouched by run control.
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("SPP 2 literals, 1 terms"), "{text}");
}

#[test]
fn events_json_flag_writes_a_jsonl_trace() {
    let path = write_pla("xor-events", ".i 2\n.o 1\n01 1\n10 1\n.e\n");
    let trace = std::env::temp_dir().join("spp-cli-test-events.jsonl");
    let out = spp()
        .arg("minimize")
        .arg(&path)
        .arg("--events-json")
        .arg(&trace)
        .arg("--quiet")
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let body = std::fs::read_to_string(&trace).expect("trace file written");
    assert!(body.lines().count() >= 2, "{body}");
    for line in body.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "not a JSON line: {line}");
    }
    assert!(body.contains("\"phase_finished\""), "{body}");
    assert!(body.contains("\"outcome\":\"completed\""), "{body}");
}

#[test]
fn threads_flag_wins_over_env() {
    // SPP_THREADS asks for 4 workers; --threads 1 must take precedence
    // (results are thread-invariant, so success + identical output to the
    // sequential default is the observable).
    let path = write_pla("xor-threads", ".i 2\n.o 1\n01 1\n10 1\n.e\n");
    let with_flag = spp()
        .arg("minimize")
        .arg(&path)
        .arg("--threads")
        .arg("1")
        .env("SPP_THREADS", "4")
        .output()
        .expect("binary runs");
    assert!(with_flag.status.success());
    let plain = spp().arg("minimize").arg(&path).output().expect("binary runs");
    assert_eq!(with_flag.stdout, plain.stdout);
}

#[test]
fn serve_subcommand_answers_requests_and_drains_on_shutdown() {
    use spp::serve::protocol::{read_frame, write_frame};
    let mut child = spp()
        .arg("serve")
        .arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--workers")
        .arg("2")
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    // The listen line names the ephemeral port.
    let mut stdout = std::io::BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut line = String::new();
    std::io::BufRead::read_line(&mut stdout, &mut line).expect("listen line");
    let addr = line.trim().rsplit(' ').next().expect("address in listen line").to_owned();
    let mut conn = std::net::TcpStream::connect(&addr).expect("connect");
    conn.set_read_timeout(Some(std::time::Duration::from_secs(30))).expect("timeout");
    let req = spp::MinimizeRequest::new("cli-serve", ".i 2\n.o 1\n01 1\n10 1\n.e\n");
    write_frame(&mut conn, &req.to_json()).expect("write request");
    let reply = read_frame(&mut conn).expect("response");
    let resp = spp::MinimizeResponse::from_json(&reply).expect("response parses");
    assert!(resp.verified, "{reply}");
    assert_eq!(resp.outputs[0].form, "(x0⊕x1)");
    // A wire shutdown drains the daemon and ends the process cleanly.
    write_frame(&mut conn, "{\"op\":\"shutdown\"}").expect("write shutdown");
    let _ = read_frame(&mut conn);
    let status = child.wait().expect("daemon exits");
    assert!(status.success());
}

#[test]
fn multi_flag_reports_sharing() {
    let path = write_pla(
        "multi",
        ".i 3\n.o 2\n001 10\n010 10\n100 11\n111 11\n.e\n",
    );
    let out = spp().arg("minimize").arg(&path).arg("--multi").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("multi-output SPP"), "{text}");
    assert!(text.contains("shared literals"), "{text}");
}

#[test]
fn portfolio_scoreboard_tells_skipped_from_excluded_entrants() {
    let race = |extra: &[&str]| {
        let out = spp()
            .args(["bench", "adr4", "--form", "portfolio", "--threads", "1", "--quiet"])
            .args(extra)
            .output()
            .expect("binary runs");
        assert!(out.status.success());
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    // Every output's SPP minimum is proved, so DSOP and SOP are skipped,
    // with the reason, and nothing is excluded.
    let text = race(&[]);
    assert!(text.contains("portfolio winner: spp (by literals)"), "{text}");
    assert!(text.contains("\n  spp  completed: cost 72, "), "{text}");
    assert!(text.contains("\n  esop completed: cost 106, "), "{text}");
    assert!(text.contains("\n  dsop skipped: a proved SPP minimum costs no more\n"), "{text}");
    assert!(text.contains("\n  sop  skipped: a proved SPP minimum costs no more\n"), "{text}");
    assert!(!text.contains("excluded") && !text.contains("unverified"), "{text}");
    // Under a one-megabyte budget no SPP minimum is proved on the exact
    // rung: all four forms run, and the ESOP wins.
    let text = race(&["--mem-budget-mb", "1"]);
    assert!(text.contains("portfolio winner: esop (by literals)"), "{text}");
    let completed = text.lines().filter(|l| l.contains(" completed: cost ")).count();
    assert_eq!(completed, 4, "{text}");
    assert!(!text.contains("skipped"), "{text}");
}
