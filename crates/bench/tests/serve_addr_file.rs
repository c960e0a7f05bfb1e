//! `reproduce --serve-addr-file PATH`: scrapers poll PATH for the bound
//! endpoint address, so a run that serves must leave the address there,
//! and a run that cannot write it must fail instead of serving unseen.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh, empty directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

/// Runs the instant `table4` artifact with the endpoint on an ephemeral
/// port, writing the bound address to `addr_file`.
fn reproduce_serving(addr_file: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["table4", "--serve", "127.0.0.1:0", "--serve-addr-file"])
        .arg(addr_file)
        .output()
        .expect("reproduce runs")
}

#[test]
fn addr_file_parent_directories_are_created() {
    let path = scratch("serve_addr_missing_parent").join("a").join("b").join("addr");
    let out = reproduce_serving(&path);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&path).expect("address file written");
    let addr: SocketAddr = text.trim().parse().expect("address file holds a socket address");
    assert!(addr.ip().is_loopback(), "{addr}");
    assert_ne!(addr.port(), 0, "the ephemeral port is resolved");
}

#[test]
fn unwritable_addr_file_fails_the_run() {
    let dir = scratch("serve_addr_unwritable");
    let not_a_dir = dir.join("file");
    std::fs::write(&not_a_dir, "").expect("create blocking file");
    let out = reproduce_serving(&not_a_dir.join("addr"));
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(out.stdout.is_empty(), "no artifact runs once the address cannot be published");
}
