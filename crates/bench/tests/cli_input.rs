//! Malformed or out-of-range command-line values, unknown flags and extra
//! arguments are refused with exit status 2 (the usage-error status),
//! never a panic or a silently wrong result.

use std::process::Command;

fn exit_code(bin: &str, args: &[&str]) -> Option<i32> {
    Command::new(bin)
        .args(args)
        .output()
        .expect("spawn the binary")
        .status
        .code()
}

#[test]
fn txdump_refuses_too_few_workers_and_zero_shards() {
    let txdump = env!("CARGO_BIN_EXE_txdump");
    for args in [
        &["bodytrack", "--workers", "0"][..],
        &["bodytrack", "--workers", "1"],
        &["bodytrack", "--shards", "0"],
    ] {
        assert_eq!(exit_code(txdump, args), Some(2), "txdump {args:?}");
    }
}

#[test]
fn txrace_cli_refuses_sampling_rates_outside_the_unit_interval() {
    let cli = env!("CARGO_BIN_EXE_txrace-cli");
    for rate in ["-1", "1.5", "NaN"] {
        let scheme = format!("sampling={rate}");
        assert_eq!(
            exit_code(cli, &["run", "blackscholes", "--scheme", &scheme]),
            Some(2),
            "--scheme {scheme}"
        );
    }
}

#[test]
fn table_and_figure_binaries_refuse_bad_positionals_and_flags() {
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_fig12"), &["1"][..]),
        (env!("CARGO_BIN_EXE_fig12"), &["x"]),
        (env!("CARGO_BIN_EXE_table1"), &["--jsn"]),
        (env!("CARGO_BIN_EXE_frontier"), &["4", "42", "7"]),
        (env!("CARGO_BIN_EXE_fig13"), &["4", "0"]),
        (env!("CARGO_BIN_EXE_fig10"), &["4", "0"]),
    ] {
        assert_eq!(exit_code(bin, args), Some(2), "{bin} {args:?}");
    }
}
