//! SPICE-subset netlist parser.
//!
//! Builds a [`Circuit`] from a textual deck, so cells can be characterized
//! without writing Rust. The accepted grammar is a practical subset of
//! Berkeley SPICE (the paper's ref \[16\]):
//!
//! ```text
//! * comment                      ; '*' or ';' comments
//! R<name> n1 n2 <value>
//! C<name> n1 n2 <value>
//! L<name> n1 n2 <value>
//! V<name> n+ n- DC <value>
//! V<name> n+ n- PULSE(v0 v1 delay rise fall width period)
//! V<name> n+ n- PWL(t1 v1 t2 v2 ...)
//! V<name> n+ n- DATA(v_rest v_active t_edge rise fall)   ; τs/τh data pulse
//! I<name> n+ n- DC <value>
//! D<name> anode cathode [IS=.. VT=.. N=.. CJ=..]
//! M<name> d g s <model> W=<value> L=<value>
//! E<name> p n cp cn <gain>
//! G<name> p n cp cn <gm>
//! .MODEL <model> NMOS|PMOS [VT0=.. KP=.. LAMBDA=.. COX=.. COV=.. CJ=..]
//! .SUBCKT <name> <ports...> … .ENDS     ; hierarchical definitions
//! X<name> <nodes...> <subckt>           ; instantiation (flattened)
//! .END
//! ```
//!
//! Values take SPICE magnitude suffixes (`f p n u m k meg g t`), lines are
//! case-insensitive, `+` continues the previous line, and node `0` is
//! ground.
//!
//! # Example
//!
//! ```rust
//! use shc_spice::netlist;
//!
//! let deck = "\
//! * rc divider
//! V1 in 0 DC 1.0
//! R1 in out 1k
//! C1 out 0 10p
//! .end";
//! let circuit = netlist::parse(deck)?;
//! assert_eq!(circuit.unknown_count(), 3); // two nodes + one branch
//! # Ok::<(), shc_spice::netlist::NetlistError>(())
//! ```

use std::collections::HashMap;
use std::fmt;

use crate::devices::{
    Capacitor, CurrentSource, Diode, DiodeParams, Inductor, MosParams, Mosfet, Resistor, Vccs,
    Vcvs, VoltageSource,
};
use crate::waveform::{DataPulse, Pulse, RampShape, Waveform};
use crate::{Circuit, Node};

/// A netlist parse failure, with the 1-based source line.
#[derive(Debug, Clone, PartialEq)]
pub struct NetlistError {
    /// 1-based line number in the deck.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "netlist line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for NetlistError {}

fn err(line: usize, message: impl Into<String>) -> NetlistError {
    NetlistError {
        line,
        message: message.into(),
    }
}

/// Parses a SPICE value with magnitude suffix: `10k`, `2.5`, `0.1n`,
/// `3meg`, `20f`. Trailing unit letters after the suffix are ignored
/// (`10pF`, `1kohm`), as in SPICE.
pub fn parse_value(token: &str) -> Option<f64> {
    let t = token.trim().to_ascii_lowercase();
    if t.is_empty() {
        return None;
    }
    // Split numeric prefix.
    let split = t
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        // Careful: 'e' may start an exponent or be a suffix-less end.
        .unwrap_or(t.len());
    // Retry logic: the scan above eats 'e' greedily, so "1e3" parses whole
    // while "1meg" splits at 'm'. A token like "2e" (broken exponent) fails
    // float parsing below and returns None.
    let (num_str, suffix) = t.split_at(split);
    let base: f64 = num_str.parse().ok()?;
    let mult = if suffix.is_empty() {
        1.0
    } else if suffix.starts_with("meg") {
        1e6
    } else {
        match suffix.as_bytes()[0] {
            b't' => 1e12,
            b'g' => 1e9,
            b'k' => 1e3,
            b'm' => 1e-3,
            b'u' => 1e-6,
            b'n' => 1e-9,
            b'p' => 1e-12,
            b'f' => 1e-15,
            // Unknown letter: treat as a unit annotation ("5ohm").
            _ => 1.0,
        }
    };
    Some(base * mult)
}

/// One logical line after comment-stripping and continuation-joining.
#[derive(Debug, Clone)]
struct Line {
    number: usize,
    text: String,
}

fn logical_lines(deck: &str) -> Vec<Line> {
    let mut out: Vec<Line> = Vec::new();
    for (idx, raw) in deck.lines().enumerate() {
        let number = idx + 1;
        // Strip ';' comments; '*' comments only when the line starts with one.
        let mut text = raw.trim().to_string();
        if text.starts_with('*') {
            continue;
        }
        if let Some(pos) = text.find(';') {
            text.truncate(pos);
        }
        let text = text.trim().to_string();
        if text.is_empty() {
            continue;
        }
        if let Some(rest) = text.strip_prefix('+') {
            if let Some(prev) = out.last_mut() {
                prev.text.push(' ');
                prev.text.push_str(rest.trim());
                continue;
            }
        }
        out.push(Line { number, text });
    }
    out
}

/// Splits a card into tokens, keeping `NAME(...)` groups intact and
/// normalizing to lowercase.
fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    let mut depth = 0usize;
    for ch in text.chars() {
        match ch {
            '(' => {
                depth += 1;
                current.push(ch);
            }
            ')' => {
                depth = depth.saturating_sub(1);
                current.push(ch);
            }
            c if c.is_whitespace() && depth == 0 => {
                if !current.is_empty() {
                    tokens.push(current.to_ascii_lowercase());
                    current = String::new();
                }
            }
            _ => current.push(ch),
        }
    }
    if !current.is_empty() {
        tokens.push(current.to_ascii_lowercase());
    }
    tokens
}

/// Parses `key=value` fields from tokens, returning the map and leftovers.
fn split_kv(tokens: &[String]) -> (HashMap<String, String>, Vec<String>) {
    let mut kv = HashMap::new();
    let mut rest = Vec::new();
    for t in tokens {
        if let Some(eq) = t.find('=') {
            kv.insert(t[..eq].to_string(), t[eq + 1..].to_string());
        } else {
            rest.push(t.clone());
        }
    }
    (kv, rest)
}

fn kv_value(
    kv: &HashMap<String, String>,
    key: &str,
    default: f64,
    line: usize,
) -> Result<f64, NetlistError> {
    match kv.get(key) {
        None => Ok(default),
        Some(v) => parse_value(v).ok_or_else(|| err(line, format!("bad value for {key}: '{v}'"))),
    }
}

/// Parses a waveform specification from source-card tokens.
fn parse_waveform(tokens: &[String], line: usize) -> Result<Waveform, NetlistError> {
    if tokens.is_empty() {
        return Err(err(line, "missing source value"));
    }
    let first = &tokens[0];
    let args_of = |tok: &str, name: &str| -> Result<Vec<f64>, NetlistError> {
        let inner = tok
            .strip_prefix(name)
            .and_then(|s| s.strip_prefix('('))
            .and_then(|s| s.strip_suffix(')'))
            .ok_or_else(|| err(line, format!("malformed {name}(...) group")))?;
        inner
            .split([' ', ','])
            .filter(|s| !s.is_empty())
            .map(|s| parse_value(s).ok_or_else(|| err(line, format!("bad number '{s}'"))))
            .collect()
    };

    if first == "dc" {
        let v = tokens
            .get(1)
            .and_then(|t| parse_value(t))
            .ok_or_else(|| err(line, "DC needs a value"))?;
        return Ok(Waveform::Dc(v));
    }
    if first.starts_with("pulse") {
        let a = args_of(first, "pulse")?;
        if a.len() != 7 {
            return Err(err(
                line,
                "PULSE needs 7 arguments: v0 v1 delay rise fall width period",
            ));
        }
        return Ok(Waveform::Pulse(Pulse {
            v0: a[0],
            v1: a[1],
            delay: a[2],
            rise: a[3],
            fall: a[4],
            width: a[5],
            period: a[6],
            shape: RampShape::Smoothstep,
        }));
    }
    if first.starts_with("pwl") {
        let a = args_of(first, "pwl")?;
        if a.len() < 2 || a.len() % 2 != 0 {
            return Err(err(line, "PWL needs an even number of time/value pairs"));
        }
        let points: Vec<(f64, f64)> = a.chunks(2).map(|c| (c[0], c[1])).collect();
        if points.windows(2).any(|w| w[1].0 < w[0].0) {
            return Err(err(line, "PWL time points must be nondecreasing"));
        }
        return Ok(Waveform::Pwl(points));
    }
    if first.starts_with("data") {
        let a = args_of(first, "data")?;
        if a.len() != 5 {
            return Err(err(
                line,
                "DATA needs 5 arguments: v_rest v_active t_edge rise fall",
            ));
        }
        return Ok(Waveform::Data(DataPulse {
            v_rest: a[0],
            v_active: a[1],
            t_edge: a[2],
            rise: a[3],
            fall: a[4],
            shape: RampShape::Smoothstep,
        }));
    }
    // Bare number = DC.
    if let Some(v) = parse_value(first) {
        return Ok(Waveform::Dc(v));
    }
    Err(err(line, format!("unrecognized source spec '{first}'")))
}

fn parse_model(tokens: &[String], line: usize) -> Result<(String, MosParams), NetlistError> {
    // .model <name> nmos|pmos [params]
    if tokens.len() < 3 {
        return Err(err(line, ".MODEL needs a name and a type"));
    }
    let name = tokens[1].clone();
    let (kv, _) = split_kv(&tokens[3..]);
    let mut params = match tokens[2].as_str() {
        "nmos" => MosParams::nmos_250nm(),
        "pmos" => MosParams::pmos_250nm(),
        other => return Err(err(line, format!("unknown model type '{other}'"))),
    };
    params.vt0 = kv_value(&kv, "vt0", params.vt0, line)?.abs();
    params.kp = kv_value(&kv, "kp", params.kp, line)?;
    params.lambda = kv_value(&kv, "lambda", params.lambda, line)?;
    params.cox = kv_value(&kv, "cox", params.cox, line)?;
    params.cov = kv_value(&kv, "cov", params.cov, line)?;
    params.cj = kv_value(&kv, "cj", params.cj, line)?;
    Ok((name, params))
}

/// A `.SUBCKT` definition: port names plus body lines.
#[derive(Debug, Clone)]
struct Subckt {
    ports: Vec<String>,
    body: Vec<Line>,
    defined_at: usize,
}

/// Extracts `.subckt … .ends` blocks, returning them plus the remaining
/// top-level lines.
fn extract_subckts(lines: Vec<Line>) -> Result<(HashMap<String, Subckt>, Vec<Line>), NetlistError> {
    let mut subckts = HashMap::new();
    let mut top = Vec::new();
    let mut current: Option<(String, Subckt)> = None;
    for line in lines {
        let tokens = tokenize(&line.text);
        match tokens.first().map(String::as_str) {
            Some(".subckt") => {
                if current.is_some() {
                    return Err(err(line.number, "nested .SUBCKT definitions not supported"));
                }
                if tokens.len() < 3 {
                    return Err(err(
                        line.number,
                        ".SUBCKT needs a name and at least one port",
                    ));
                }
                current = Some((
                    tokens[1].clone(),
                    Subckt {
                        ports: tokens[2..].to_vec(),
                        body: Vec::new(),
                        defined_at: line.number,
                    },
                ));
            }
            Some(".ends") => match current.take() {
                Some((name, sub)) => {
                    subckts.insert(name, sub);
                }
                None => return Err(err(line.number, ".ENDS without .SUBCKT")),
            },
            _ => match &mut current {
                Some((_, sub)) => sub.body.push(line),
                None => top.push(line),
            },
        }
    }
    if let Some((name, sub)) = current {
        return Err(err(sub.defined_at, format!(".SUBCKT {name} missing .ENDS")));
    }
    Ok((subckts, top))
}

/// Token positions holding node names for each card type.
fn node_token_indices(card_letter: char, tokens: &[String]) -> Vec<usize> {
    match card_letter {
        'r' | 'c' | 'l' | 'v' | 'i' | 'd' => vec![1, 2],
        'e' | 'g' => vec![1, 2, 3, 4],
        'm' => {
            // First three positional (non key=value) fields are d, g, s.
            tokens
                .iter()
                .enumerate()
                .skip(1)
                .filter(|(_, t)| !t.contains('='))
                .map(|(i, _)| i)
                .take(3)
                .collect()
        }
        'x' => {
            // All positional fields except the final subckt name.
            let positional: Vec<usize> = tokens
                .iter()
                .enumerate()
                .skip(1)
                .filter(|(_, t)| !t.contains('='))
                .map(|(i, _)| i)
                .collect();
            positional[..positional.len().saturating_sub(1)].to_vec()
        }
        _ => Vec::new(),
    }
}

/// Maximum subcircuit nesting depth during flattening.
const MAX_SUBCKT_DEPTH: usize = 20;

/// Expands one `X` instance into flattened device lines.
fn expand_instance(
    inst: &str,
    line_no: usize,
    tokens: &[String],
    subckts: &HashMap<String, Subckt>,
    depth: usize,
    out: &mut Vec<Line>,
) -> Result<(), NetlistError> {
    if depth > MAX_SUBCKT_DEPTH {
        return Err(err(line_no, "subcircuit nesting too deep (cycle?)"));
    }
    let positional: Vec<&String> = tokens[1..].iter().filter(|t| !t.contains('=')).collect();
    let Some((sub_name, actual_nodes)) = positional.split_last() else {
        return Err(err(line_no, "X card needs nodes and a subckt name"));
    };
    let sub = subckts
        .get(sub_name.as_str())
        .ok_or_else(|| err(line_no, format!("unknown subcircuit '{sub_name}'")))?;
    if actual_nodes.len() != sub.ports.len() {
        return Err(err(
            line_no,
            format!(
                "subcircuit '{sub_name}' has {} ports, instance gives {}",
                sub.ports.len(),
                actual_nodes.len()
            ),
        ));
    }
    let mut port_map: HashMap<&str, &str> = HashMap::new();
    for (port, actual) in sub.ports.iter().zip(actual_nodes.iter()) {
        port_map.insert(port.as_str(), actual.as_str());
    }
    let rename = |node: &str| -> String {
        if node == "0" {
            "0".to_string()
        } else if let Some(actual) = port_map.get(node) {
            (*actual).to_string()
        } else {
            format!("{inst}.{node}")
        }
    };

    for body_line in &sub.body {
        let mut btokens = tokenize(&body_line.text);
        let Some(first) = btokens.first().cloned() else {
            continue;
        };
        let Some(letter) = first.chars().next() else {
            // tokenize() never yields empty tokens; skip rather than panic.
            continue;
        };
        if letter == '.' {
            // .model cards are collected globally; other directives are
            // not allowed inside a body.
            if first == ".model" {
                continue;
            }
            return Err(err(
                body_line.number,
                format!("directive '{first}' not allowed inside .SUBCKT"),
            ));
        }
        for idx in node_token_indices(letter, &btokens) {
            btokens[idx] = rename(&btokens[idx]);
        }
        // Keep the leading card letter; qualify the instance path after it.
        btokens[0] = format!("{first}@{inst}");
        if letter == 'x' {
            let nested_inst = btokens[0].clone();
            expand_instance(
                &nested_inst,
                body_line.number,
                &btokens,
                subckts,
                depth + 1,
                out,
            )?;
        } else {
            out.push(Line {
                number: body_line.number,
                text: btokens.join(" "),
            });
        }
    }
    Ok(())
}

/// Flattens all `X` instances, leaving a purely flat card list.
fn flatten(lines: Vec<Line>) -> Result<Vec<Line>, NetlistError> {
    let (subckts, top) = extract_subckts(lines)?;
    let mut out = Vec::new();
    for line in top {
        let tokens = tokenize(&line.text);
        let Some(first) = tokens.first() else {
            continue;
        };
        if first.starts_with('x') {
            let inst = first.clone();
            expand_instance(&inst, line.number, &tokens, &subckts, 0, &mut out)?;
        } else {
            out.push(line);
        }
    }
    Ok(out)
}

/// Parses a SPICE-subset deck into a [`Circuit`].
///
/// # Errors
///
/// Returns a [`NetlistError`] carrying the offending line number for any
/// syntax or semantic problem (unknown card, bad value, missing model…).
pub fn parse(deck: &str) -> Result<Circuit, NetlistError> {
    let lines = flatten(logical_lines(deck))?;

    // First pass: collect .model cards (they may appear after use).
    let mut models: HashMap<String, MosParams> = HashMap::new();
    for line in &lines {
        let tokens = tokenize(&line.text);
        if tokens.first().map(String::as_str) == Some(".model") {
            let (name, params) = parse_model(&tokens, line.number)?;
            models.insert(name, params);
        }
    }

    let mut circuit = Circuit::new();
    let node = |circuit: &mut Circuit, name: &str| -> Node { circuit.node(name) };

    for line in &lines {
        let tokens = tokenize(&line.text);
        let Some(card) = tokens.first() else { continue };
        let ln = line.number;
        let need = |k: usize| -> Result<(), NetlistError> {
            if tokens.len() < k {
                Err(err(ln, format!("expected at least {} fields", k)))
            } else {
                Ok(())
            }
        };
        let Some(kind) = card.chars().next() else {
            // tokenize() never yields empty tokens; skip rather than panic.
            continue;
        };
        match kind {
            '.' => {
                match card.as_str() {
                    ".model" => {} // handled in the first pass
                    ".end" => break,
                    other => return Err(err(ln, format!("unsupported directive '{other}'"))),
                }
            }
            'r' => {
                need(4)?;
                let value = parse_value(&tokens[3])
                    .ok_or_else(|| err(ln, format!("bad resistance '{}'", tokens[3])))?;
                let (a, b) = (
                    node(&mut circuit, &tokens[1]),
                    node(&mut circuit, &tokens[2]),
                );
                circuit.add(Resistor::new(card, a, b, value));
            }
            'c' => {
                need(4)?;
                let value = parse_value(&tokens[3])
                    .ok_or_else(|| err(ln, format!("bad capacitance '{}'", tokens[3])))?;
                let (a, b) = (
                    node(&mut circuit, &tokens[1]),
                    node(&mut circuit, &tokens[2]),
                );
                circuit.add(Capacitor::new(card, a, b, value));
            }
            'l' => {
                need(4)?;
                let value = parse_value(&tokens[3])
                    .ok_or_else(|| err(ln, format!("bad inductance '{}'", tokens[3])))?;
                let (a, b) = (
                    node(&mut circuit, &tokens[1]),
                    node(&mut circuit, &tokens[2]),
                );
                circuit.add(Inductor::new(card, a, b, value));
            }
            'v' => {
                need(4)?;
                let wf = parse_waveform(&tokens[3..], ln)?;
                let (p, n) = (
                    node(&mut circuit, &tokens[1]),
                    node(&mut circuit, &tokens[2]),
                );
                circuit.add(VoltageSource::new(card, p, n, wf));
            }
            'i' => {
                need(4)?;
                let wf = parse_waveform(&tokens[3..], ln)?;
                let (p, n) = (
                    node(&mut circuit, &tokens[1]),
                    node(&mut circuit, &tokens[2]),
                );
                circuit.add(CurrentSource::new(card, p, n, wf));
            }
            'd' => {
                need(3)?;
                let (kv, _) = split_kv(&tokens[3..]);
                let params = DiodeParams {
                    i_s: kv_value(&kv, "is", DiodeParams::default().i_s, ln)?,
                    v_t: kv_value(&kv, "vt", DiodeParams::default().v_t, ln)?,
                    n: kv_value(&kv, "n", DiodeParams::default().n, ln)?,
                    cj: kv_value(&kv, "cj", DiodeParams::default().cj, ln)?,
                    v_crit: DiodeParams::default().v_crit,
                };
                let (a, c) = (
                    node(&mut circuit, &tokens[1]),
                    node(&mut circuit, &tokens[2]),
                );
                circuit.add(Diode::new(card, a, c, params));
            }
            'm' => {
                need(5)?;
                let (kv, positional) = split_kv(&tokens[1..]);
                if positional.len() < 4 {
                    return Err(err(ln, "MOSFET needs d g s <model>"));
                }
                let model_name = &positional[3];
                let params = *models.get(model_name).ok_or_else(|| {
                    err(
                        ln,
                        format!("unknown model '{model_name}' (missing .MODEL?)"),
                    )
                })?;
                let w = kv_value(&kv, "w", 1e-6, ln)?;
                let l = kv_value(&kv, "l", 0.25e-6, ln)?;
                let d = node(&mut circuit, &positional[0]);
                let g = node(&mut circuit, &positional[1]);
                let s = node(&mut circuit, &positional[2]);
                circuit.add(Mosfet::new(card, d, g, s, params, w, l));
            }
            'e' => {
                need(6)?;
                let gain = parse_value(&tokens[5])
                    .ok_or_else(|| err(ln, format!("bad gain '{}'", tokens[5])))?;
                let p = node(&mut circuit, &tokens[1]);
                let n = node(&mut circuit, &tokens[2]);
                let cp = node(&mut circuit, &tokens[3]);
                let cn = node(&mut circuit, &tokens[4]);
                circuit.add(Vcvs::new(card, p, n, cp, cn, gain));
            }
            'g' => {
                need(6)?;
                let gm = parse_value(&tokens[5])
                    .ok_or_else(|| err(ln, format!("bad transconductance '{}'", tokens[5])))?;
                let p = node(&mut circuit, &tokens[1]);
                let n = node(&mut circuit, &tokens[2]);
                let cp = node(&mut circuit, &tokens[3]);
                let cn = node(&mut circuit, &tokens[4]);
                circuit.add(Vccs::new(card, p, n, cp, cn, gm));
            }
            other => {
                return Err(err(ln, format!("unknown card type '{other}'")));
            }
        }
    }

    Ok(circuit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcop::{solve_dc, DcOptions};
    use crate::waveform::Params;

    #[test]
    fn value_suffixes() {
        // Suffix multiplication rounds in the last ulp; compare relatively.
        let close = |tok: &str, expect: f64| {
            let v = parse_value(tok).unwrap_or_else(|| panic!("'{tok}' should parse"));
            assert!(
                (v - expect).abs() <= 1e-12 * expect.abs(),
                "'{tok}': got {v:e}, expected {expect:e}"
            );
        };
        close("10k", 10e3);
        close("2.5", 2.5);
        close("0.1n", 0.1e-9);
        close("3meg", 3e6);
        close("20f", 20e-15);
        close("1e3", 1000.0);
        close("-5m", -5e-3);
        close("1u", 1e-6);
        close("1t", 1e12);
        close("1g", 1e9);
        close("10pF", 10e-12);
        assert_eq!(parse_value(""), None);
        assert_eq!(parse_value("abc"), None);
    }

    #[test]
    fn parses_rc_divider_and_solves() {
        let deck = "\
* divider
V1 in 0 DC 2.0
R1 in mid 1k
R2 mid 0 1k
.end";
        let c = parse(deck).unwrap();
        assert_eq!(c.unknown_count(), 3);
        let sol = solve_dc(&c, &Params::default(), &DcOptions::default()).unwrap();
        let mid = c.find_node("mid").unwrap().unknown().unwrap();
        assert!((sol.x[mid] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn continuation_lines_and_comments() {
        let deck = "\
V1 a 0 DC 1 ; source
R1 a b
+ 2k
R2 b 0 2k
* trailing comment line
.end";
        let c = parse(deck).unwrap();
        assert_eq!(c.device_count(), 3);
    }

    #[test]
    fn parses_pulse_pwl_and_data_sources() {
        let deck = "\
Vclk clk 0 PULSE(0 2.5 1n 0.1n 0.1n 4.9n 10n)
Vd d 0 DATA(0 2.5 11.05n 0.1n 0.1n)
Vp p 0 PWL(0 0 1n 1 2n 0.5)
R1 clk 0 1k
R2 d 0 1k
R3 p 0 1k
.end";
        let c = parse(deck).unwrap();
        assert_eq!(c.device_count(), 6);
        // The data source responds to skews.
        let params = Params::new(300e-12, 200e-12);
        let x_zero = shc_linalg::Vector::zeros(c.unknown_count());
        let mut dfdp = shc_linalg::Vector::zeros(c.unknown_count());
        c.assemble_dfdp_into(
            &mut dfdp,
            &x_zero,
            11.05e-9 - 300e-12,
            &params,
            crate::Param::Setup,
        );
        assert!(dfdp.norm_inf() > 0.0, "data source must couple to τs");
    }

    #[test]
    fn parses_mosfet_with_model() {
        let deck = "\
.model mynmos NMOS VT0=0.5 KP=100u LAMBDA=0.05
.model mypmos PMOS
Vdd vdd 0 DC 2.5
Vin in 0 DC 0
M1 out in 0 mynmos W=2u L=0.25u
M2 out in vdd mypmos W=4u L=0.25u
Cout out 0 10f
.end";
        let c = parse(deck).unwrap();
        let sol = solve_dc(&c, &Params::default(), &DcOptions::default()).unwrap();
        let out = c.find_node("out").unwrap().unknown().unwrap();
        assert!(
            (sol.x[out] - 2.5).abs() < 0.1,
            "inverter with low input → high out"
        );
    }

    #[test]
    fn parses_inductor_card() {
        let deck = "\
V1 in 0 DC 1
R1 in mid 1k
L1 mid 0 10u
.end";
        let c = parse(deck).unwrap();
        assert_eq!(c.device_count(), 3);
        // Inductor + source each take a branch unknown.
        assert_eq!(c.branch_count(), 2);
        let sol = solve_dc(&c, &Params::default(), &DcOptions::default()).unwrap();
        let mid = c.find_node("mid").unwrap().unknown().unwrap();
        assert!(sol.x[mid].abs() < 1e-6, "dc short, got {}", sol.x[mid]);
    }

    #[test]
    fn parses_controlled_sources_and_diode() {
        let deck = "\
V1 in 0 DC 0.5
E1 amp 0 in 0 3
G1 0 load in 0 1m
RL load 0 1k
RA amp 0 1k
D1 load 0 IS=1e-14
.end";
        let c = parse(deck).unwrap();
        assert_eq!(c.device_count(), 6);
        c.validate().unwrap();
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse("R1 a 0 bogus\n.end").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.to_string().contains("bogus"));

        let e = parse("V1 a 0 DC 1\nX9 what 0 1k\n.end").unwrap_err();
        assert_eq!(e.line, 2);

        let e = parse("M1 d g s missing W=1u L=1u\n.end").unwrap_err();
        assert!(e.message.contains("unknown model"));

        let e = parse("V1 a 0 PULSE(1 2 3)\n.end").unwrap_err();
        assert!(e.message.contains("7 arguments"));

        let e = parse(".weird\n.end").unwrap_err();
        assert!(e.message.contains("unsupported directive"));
    }

    #[test]
    fn end_stops_parsing() {
        let deck = "\
R1 a 0 1k
.end
R2 b 0 totally broken";
        let c = parse(deck).unwrap();
        assert_eq!(c.device_count(), 1);
    }

    #[test]
    fn subckt_flattening_builds_hierarchy() {
        // An inverter subckt used twice, plus a nested buffer subckt.
        let deck = "\
.model n1 NMOS
.model p1 PMOS
.subckt inv in out vdd
Mp out in vdd p1 W=2u L=0.25u
Mn out in 0   n1 W=1u L=0.25u
.ends
.subckt buf a y vdd
Xi1 a mid vdd inv
Xi2 mid y vdd inv
.ends
Vdd vdd 0 DC 2.5
Vin in 0 DC 0
Xb in out vdd buf
Cl out 0 10f
.end";
        let c = parse(deck).unwrap();
        // 4 MOSFETs + 2 sources + 1 cap.
        assert_eq!(c.device_count(), 7);
        // Internal node of the buffer is qualified, the ports are shared.
        assert!(c.find_node("xb.mid").is_some(), "hierarchical node name");
        assert!(c.find_node("out").is_some());
        // And it simulates: buffer of a low input is low.
        let sol = solve_dc(&c, &Params::default(), &DcOptions::default()).unwrap();
        let out = c.find_node("out").unwrap().unknown().unwrap();
        assert!(
            sol.x[out] < 0.1,
            "buffered low input should stay low, got {}",
            sol.x[out]
        );
    }

    #[test]
    fn subckt_errors_are_descriptive() {
        let e = parse(
            ".subckt a in
R1 in 0 1k
.end",
        )
        .unwrap_err();
        assert!(e.message.contains("missing .ENDS"), "{e}");

        let e = parse(
            ".ends
.end",
        )
        .unwrap_err();
        assert!(e.message.contains("without .SUBCKT"));

        let e = parse(
            "X1 a b missing
.end",
        )
        .unwrap_err();
        assert!(e.message.contains("unknown subcircuit"));

        let deck = "\
.subckt inv in out
R1 in out 1k
.ends
X1 a inv
.end";
        let e = parse(deck).unwrap_err();
        assert!(e.message.contains("ports"), "{e}");
    }

    #[test]
    fn recursive_subckt_is_rejected() {
        let deck = "\
.subckt loop a b
Xinner a b loop
.ends
X1 n1 n2 loop
.end";
        let e = parse(deck).unwrap_err();
        assert!(e.message.contains("nesting too deep"), "{e}");
    }

    #[test]
    fn pwl_times_must_be_sorted() {
        let e = parse("V1 a 0 PWL(1n 1 0 0)\n.end").unwrap_err();
        assert!(e.message.contains("nondecreasing"));
    }
}
