//! `pagpass serve` under `--kernel quantized`: scores must be bit-identical
//! across a full server restart.
//!
//! The quantized pack is rebuilt from the f32 weights on every session
//! construction, so a restarted server only reproduces its scores if the
//! pack and the decode kernels are fully deterministic. This lives in its
//! own integration-test binary because the kernel mode is process-wide
//! state; sharing a process with the pinned-mode serve tests would race.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::Duration;

use pagpass_nn::{set_kernel_mode, GptConfig, KernelMode};
use pagpass_telemetry::{parse_json, JsonValue, LogFormat, Telemetry};
use pagpass_tokenizer::VOCAB_SIZE;
use pagpassgpt::{
    run_with_listeners, CancelToken, InferenceSession, ModelKind, PasswordModel, ServeConfig,
};

fn tiny() -> PasswordModel {
    PasswordModel::new(
        ModelKind::PagPassGpt,
        GptConfig {
            vocab_size: VOCAB_SIZE,
            ctx_len: 32,
            dim: 16,
            n_layers: 1,
            n_heads: 2,
        },
        3,
    )
}

/// Boots a fresh server instance (fresh model, fresh quantized pack — the
/// same thing a process restart rebuilds), scores `pws`, shuts down, and
/// returns password → `ln_prob` as the exact bits that crossed the wire.
fn serve_once(pws: &[&str]) -> HashMap<String, f64> {
    let model = tiny();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let cancel = CancelToken::new();
    let tel = Telemetry::to_writer(LogFormat::Json, Box::new(std::io::sink()));
    let cfg = ServeConfig::default();
    thread::scope(|s| {
        let server = s.spawn(|| {
            run_with_listeners(&model, &listener, None, &cfg, &cancel, &tel, None).expect("serve")
        });
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let mut batch = String::new();
        for (i, pw) in pws.iter().enumerate() {
            batch.push_str(&format!("{{\"password\":\"{pw}\",\"id\":{i}}}\n"));
        }
        stream.write_all(batch.as_bytes()).expect("send requests");
        let mut reader = BufReader::new(stream);
        let mut scores = HashMap::new();
        for _ in 0..pws.len() {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read response line");
            let value = parse_json(line.trim()).expect("response is valid JSON");
            assert_eq!(value.get("ok"), Some(&JsonValue::Bool(true)), "{value:?}");
            let id = value
                .get("id")
                .and_then(JsonValue::as_f64)
                .expect("response id") as usize;
            let ln_prob = value
                .get("ln_prob")
                .and_then(JsonValue::as_f64)
                .expect("scored response carries ln_prob");
            scores.insert(pws[id].to_string(), ln_prob);
        }
        cancel.cancel();
        let report = server.join().expect("server thread");
        assert!(report.reconciles(), "{report:?}");
        scores
    })
}

#[test]
fn quantized_scores_survive_a_server_restart_bit_identically() {
    set_kernel_mode(KernelMode::Quantized);
    let pws = ["hello123", "Pass123$", "abc12345", "qwerty99"];

    let first = serve_once(&pws);
    let second = serve_once(&pws);
    for pw in &pws {
        assert_eq!(
            first[*pw].to_bits(),
            second[*pw].to_bits(),
            "{pw}: restarted quantized server must reproduce the exact bits"
        );
    }

    // The served bits also match a solo quantized session — serve adds no
    // numeric drift on top of the deterministic quantized decode.
    let model = tiny();
    for pw in &pws {
        let mut solo = InferenceSession::new(&model);
        let want = solo.log_probability(pw).expect("scorable password");
        assert_eq!(first[*pw].to_bits(), want.to_bits(), "{pw}");
    }

    // And they genuinely came from the quantized kernels, not a silent
    // fall-through to f32: the two modes disagree in the low bits.
    set_kernel_mode(KernelMode::Pinned);
    let f32_model = tiny();
    let mut f32_session = InferenceSession::new(&f32_model);
    let f32_score = f32_session.log_probability(pws[0]).expect("scorable");
    set_kernel_mode(KernelMode::Quantized);
    assert_ne!(first[pws[0]].to_bits(), f32_score.to_bits());
}
