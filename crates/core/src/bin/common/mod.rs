//! What `graphpi-cli` and `graphpi-server` share: the declarative flag
//! table with the one engine that parses a command line against it and
//! renders its usage and `--help`, and the graph loader.
//!
//! A (sub)command is a [`Spec`]: its [`Flag`] rows, each naming the flag,
//! its [`Kind`] (which fixes the operand syntax and the error wording),
//! its default and one line of help. [`Spec::parse`] checks every operand
//! and returns the [`Parsed`] values; the binaries then fill their typed
//! argument structs from it and apply the rules that span several flags.

// Each binary uses a subset of the kinds and accessors.
#![allow(dead_code)]

use graphpi_graph::csr::CsrGraph;
use graphpi_graph::io;
use std::ops::RangeInclusive;
use std::str::FromStr;

/// Operand syntax of a flag.
#[derive(Debug)]
pub enum Kind {
    /// Present or absent; takes no operand.
    Switch,
    /// Any string; the payload names the operand in the usage text.
    Str(&'static str),
    /// An unsigned integer of at most this many bits ("must be an
    /// integer"), within the bounds (else `<flag> <complaint>`, the first
    /// complaint for a value below them, the second for one above).
    Int(u32, RangeInclusive<u64>, &'static str, &'static str),
    /// A number above the first bound and up to the second (else `<flag>
    /// <complaint>`).
    Float(f64, f64, &'static str),
    /// One of the listed words; the first payload says what is being
    /// chosen ("unknown `<what>` ...").
    OneOf(&'static str, &'static [&'static str]),
    /// Two vertex ids, `U V`; the flag may repeat.
    VertexPair,
}

/// An integer operand bounded only by its type's width.
pub const USIZE: Kind = Kind::Int(usize::BITS, 0..=u64::MAX, "", "");
/// See [`USIZE`].
pub const U64: Kind = Kind::Int(64, 0..=u64::MAX, "", "");
/// See [`USIZE`].
pub const U32: Kind = Kind::Int(32, 0..=u64::MAX, "", "");

/// The most a flag may ask for when its value becomes a number of OS
/// threads or of per-job slots allocated up front: far more than any
/// machine has cores, far fewer than it takes to hang the process spawning
/// them.
const MAX_WORKERS: u64 = 1024;
const TOO_MANY_WORKERS: &str = "must be at most 1024";
/// A number of threads or slots; 0 asks for the automatic choice.
pub const WORKERS: Kind = Kind::Int(usize::BITS, 0..=MAX_WORKERS, "", TOO_MANY_WORKERS);
/// A number of threads, of which there must be one.
pub const WORKERS_AT_LEAST_ONE: Kind = Kind::Int(
    usize::BITS,
    1..=MAX_WORKERS,
    "must be at least 1",
    TOO_MANY_WORKERS,
);

/// One row of a flag table.
#[derive(Debug)]
pub struct Flag {
    pub name: &'static str,
    pub kind: Kind,
    /// The value when the flag is absent, in operand syntax ("" = none).
    pub default: &'static str,
    /// Whether every invocation must give it.
    pub required: bool,
    pub help: &'static str,
}

/// An optional flag.
pub const fn flag(
    name: &'static str,
    kind: Kind,
    default: &'static str,
    help: &'static str,
) -> Flag {
    Flag {
        name,
        kind,
        default,
        required: false,
        help,
    }
}

impl Flag {
    /// Marks the flag as one every invocation must give.
    pub const fn required(self) -> Flag {
        Flag {
            required: true,
            ..self
        }
    }

    /// Checks one operand against the flag's kind.
    fn check(&self, value: &str) -> Result<(), String> {
        let complaint = match &self.kind {
            Kind::Int(bits, bounds, too_small, too_large) => match value.parse::<u64>() {
                Ok(parsed) if *bits < u64::BITS && parsed >> bits != 0 => "must be an integer",
                Ok(parsed) if parsed < *bounds.start() => too_small,
                Ok(parsed) if parsed > *bounds.end() => too_large,
                Ok(_) => return Ok(()),
                Err(_) => "must be an integer",
            },
            Kind::Float(above, up_to, out_of_bounds) => match value.parse::<f64>() {
                // Written so that NaN fails it.
                Ok(parsed) if parsed > *above && parsed <= *up_to => return Ok(()),
                Ok(_) => out_of_bounds,
                Err(_) => "must be a number",
            },
            Kind::OneOf(what, choices) if !choices.contains(&value) => {
                return Err(format!("unknown {what} {value:?} ({})", choices.join("|")));
            }
            _ => return Ok(()),
        };
        Err(format!("{} {complaint}", self.name))
    }

    /// `--flag OPERAND` as the usage text spells it.
    fn synopsis(&self) -> String {
        let operand = match &self.kind {
            Kind::Switch => return self.name.to_string(),
            Kind::Str(operand) => operand.to_string(),
            Kind::Int(..) => "N".to_string(),
            Kind::Float(..) => "R".to_string(),
            Kind::OneOf(_, choices) => choices.join("|"),
            Kind::VertexPair => "U V".to_string(),
        };
        format!("{} {operand}", self.name)
    }
}

/// One command line: a binary, or one subcommand of it.
#[derive(Debug)]
pub struct Spec {
    /// The words that select it, then any positional operands
    /// (`graphpi-cli convert <edge-list> <binary-out>`).
    pub command: &'static str,
    /// What it does; the first line is its entry in a command list.
    pub about: &'static str,
    pub flags: &'static [Flag],
}

impl Spec {
    /// The subcommand word (empty for a binary without subcommands).
    pub fn name(&self) -> &'static str {
        self.command.split(' ').nth(1).unwrap_or("")
    }

    /// Parses `args` (the words after the command) against the table.
    pub fn parse(&self, args: &[String]) -> Result<Parsed<'_>, String> {
        let mut given = Vec::new();
        let mut words = args.iter().map(String::as_str);
        while let Some(word) = words.next() {
            // `--flag=value` is sugar for `--flag value`.
            let (name, mut inline) = match word.split_once('=') {
                Some((name, value)) if word.starts_with("--") => (name, Some(value)),
                _ => (word, None),
            };
            let Some(flag) = self.flags.iter().find(|flag| flag.name == name) else {
                return Err(format!("unknown flag {name}\n{}", self.usage()));
            };
            let mut operand = || inline.take().or_else(|| words.next());
            let value = match flag.kind {
                Kind::Switch => String::new(),
                Kind::VertexPair => {
                    let mut vertex = || -> Result<u32, String> {
                        let id = operand().ok_or(format!("{name} needs two vertex ids"))?;
                        id.parse()
                            .map_err(|_| format!("{name} vertices must be integers"))
                    };
                    format!("{} {}", vertex()?, vertex()?)
                }
                _ => {
                    let value = operand().ok_or(format!("{name} needs a value"))?;
                    flag.check(value)?;
                    value.to_string()
                }
            };
            if inline.is_some() {
                return Err(format!("{name} takes no value"));
            }
            given.push((flag, value));
        }
        let parsed = Parsed { spec: self, given };
        match self
            .flags
            .iter()
            .find(|f| f.required && !parsed.given(f.name))
        {
            Some(missing) => Err(format!("{} is required\n{}", missing.name, self.usage())),
            None => Ok(parsed),
        }
    }

    /// The one-line synopsis appended to usage errors.
    pub fn usage(&self) -> String {
        let mut usage = format!("usage: {}", self.command);
        for flag in self.flags {
            usage += &match flag.kind {
                _ if flag.required => format!(" {}", flag.synopsis()),
                Kind::VertexPair => format!(" [{}]...", flag.synopsis()),
                _ => format!(" [{}]", flag.synopsis()),
            };
        }
        usage
    }

    /// The `--help` text: usage, purpose, and one line per flag.
    pub fn help(&self) -> String {
        let mut help = format!("{}\n\n{}\n", self.usage(), self.about);
        for flag in self.flags {
            let note = match flag.default {
                _ if flag.required => " (required)".to_string(),
                "" => String::new(),
                default => format!(" [default: {default}]"),
            };
            help += &format!("\n  {:<30} {}{note}", flag.synopsis(), flag.help);
        }
        help
    }
}

/// Whether the command line asks for `--help`.
pub fn wants_help(args: &[String]) -> bool {
    args.iter().any(|arg| arg == "--help")
}

/// The checked operands of one parsed command line. The accessors panic
/// on a flag the table does not hold or a type its kind cannot produce:
/// both are mistakes in this program, not in its input.
#[derive(Debug)]
pub struct Parsed<'a> {
    spec: &'a Spec,
    given: Vec<(&'a Flag, String)>,
}

impl Parsed<'_> {
    fn flag(&self, name: &str) -> &Flag {
        let found = self.spec.flags.iter().find(|flag| flag.name == name);
        found.unwrap_or_else(|| panic!("{name} is not in the table of {}", self.spec.command))
    }

    fn values<'s>(&'s self, name: &'s str) -> impl DoubleEndedIterator<Item = &'s str> {
        self.flag(name);
        let given = self.given.iter().filter(move |(flag, _)| flag.name == name);
        given.map(|(_, value)| value.as_str())
    }

    /// Whether the flag appeared on the command line.
    pub fn given(&self, name: &str) -> bool {
        self.values(name).next().is_some()
    }

    /// The flag's value — its last occurrence, else its default, else
    /// `None` — as any type that parses from the operand syntax.
    pub fn opt<T: FromStr>(&self, name: &str) -> Option<T> {
        let default = Some(self.flag(name).default).filter(|default| !default.is_empty());
        let value = self.values(name).next_back().or(default)?;
        let parsed = value.parse().ok();
        Some(parsed.unwrap_or_else(|| panic!("{name}: the field's type rejects {value:?}")))
    }

    /// The value of a flag that has a default or is required.
    pub fn get<T: FromStr>(&self, name: &str) -> T {
        let value = self.opt(name);
        value.unwrap_or_else(|| panic!("{name} has neither a value nor a default"))
    }

    /// The index of a [`Kind::OneOf`] flag's value among its choices.
    pub fn choice(&self, name: &str) -> usize {
        let Kind::OneOf(_, choices) = self.flag(name).kind else {
            panic!("{name} is not a one-of flag");
        };
        let value: String = self.get(name);
        let index = choices.iter().position(|choice| *choice == value);
        index.expect("a checked value or the default is one of the choices")
    }

    /// Every occurrence of a [`Kind::VertexPair`] flag, in order.
    pub fn pairs(&self, name: &str) -> Vec<(u32, u32)> {
        let id = |id: &str| id.parse().expect("checked by parse");
        let pairs = self.values(name).filter_map(|pair| pair.split_once(' '));
        pairs.map(|(u, v)| (id(u), id(v))).collect()
    }
}

/// How to interpret a graph file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphFormat {
    /// Sniff the magic bytes: binary if they match, else text.
    Auto,
    /// Whitespace-separated edge list.
    Text,
    /// The checksummed binary format (opened zero-copy via mmap).
    Binary,
}

/// The `--format` flag's kind; its choices index [`GraphFormat::ALL`].
pub const FORMAT: Kind = Kind::OneOf("format", &["auto", "text", "binary"]);

impl GraphFormat {
    /// Every format, in the order of [`FORMAT`]'s choices.
    pub const ALL: [GraphFormat; 3] = [GraphFormat::Auto, GraphFormat::Text, GraphFormat::Binary];
}

/// Loads a data graph (binary opens zero-copy).
pub fn load_graph(path: &str, format: GraphFormat) -> Result<CsrGraph, String> {
    let binary = match format {
        GraphFormat::Binary => true,
        GraphFormat::Text => false,
        GraphFormat::Auto => io::sniff_is_binary(path),
    };
    let loaded = if binary {
        io::load_binary_mmap(path)
    } else {
        io::load_edge_list(path)
    };
    loaded.map_err(|e| format!("failed to load {path}: {e}"))
}

/// The checks every flag table must pass, whatever binary declares it.
#[cfg(test)]
pub mod testing {
    use super::*;

    fn words(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|part| part.to_string()).collect()
    }

    /// An operand the flag accepts.
    fn valid(flag: &Flag) -> Vec<String> {
        match &flag.kind {
            Kind::Switch => vec![],
            Kind::Str(_) => words(&["x"]),
            Kind::Int(_, bounds, ..) => vec![bounds.start().to_string()],
            Kind::Float(_, up_to, _) => vec![up_to.to_string()],
            Kind::OneOf(_, choices) => words(&choices[..1]),
            Kind::VertexPair => words(&["1", "2"]),
        }
    }

    /// Drives every row of `spec` through the engine: a missing operand,
    /// an operand of the wrong type, one outside the bounds, the
    /// `--flag=value` spelling, the default, and the row's line in `--help`.
    pub fn check_rows(spec: &Spec) {
        // What every invocation must carry for the parse to succeed.
        let mut base = Vec::new();
        for flag in spec.flags.iter().filter(|flag| flag.required) {
            base.push(flag.name.to_string());
            base.extend(valid(flag));
        }
        let parse = |extra: &[&str]| spec.parse(&[base.clone(), words(extra)].concat());
        let error = |extra: &[&str]| parse(extra).expect_err(&format!("{extra:?} must be refused"));
        for flag in spec.flags {
            let name = flag.name;
            let operand = valid(flag);
            if !flag.default.is_empty() {
                flag.check(flag.default)
                    .expect("a default is a valid operand");
            }
            assert!(
                spec.help().contains(&format!("  {} ", flag.synopsis())),
                "{name}: help"
            );
            match &flag.kind {
                Kind::Switch => {
                    assert!(parse(&[name]).unwrap().given(name));
                    assert_eq!(
                        error(&[&format!("{name}=1")]),
                        format!("{name} takes no value")
                    );
                    continue;
                }
                Kind::VertexPair => {
                    assert_eq!(
                        parse(&[name, "1", "2", name, "3", "4"])
                            .unwrap()
                            .pairs(name),
                        [(1, 2), (3, 4)]
                    );
                    assert_eq!(error(&[name, "1"]), format!("{name} needs two vertex ids"));
                    assert_eq!(
                        error(&[name, "1", "x"]),
                        format!("{name} vertices must be integers")
                    );
                    continue;
                }
                Kind::Str(_) => {}
                Kind::Int(bits, bounds, too_small, too_large) => {
                    assert_eq!(error(&[name, "x"]), format!("{name} must be an integer"));
                    assert_eq!(error(&[name, "-1"]), format!("{name} must be an integer"));
                    if *bits < u64::BITS {
                        let too_wide = (1u64 << bits).to_string();
                        assert_eq!(
                            error(&[name, &too_wide]),
                            format!("{name} must be an integer")
                        );
                    }
                    if let Some(below) = bounds.start().checked_sub(1) {
                        assert_eq!(
                            error(&[name, &below.to_string()]),
                            format!("{name} {too_small}")
                        );
                    }
                    if let Some(above) = bounds.end().checked_add(1) {
                        assert_eq!(
                            error(&[name, &above.to_string()]),
                            format!("{name} {too_large}")
                        );
                    }
                }
                Kind::Float(above, up_to, complaint) => {
                    assert_eq!(error(&[name, "x"]), format!("{name} must be a number"));
                    for outside in [
                        above.to_string(),
                        (up_to + 0.5).to_string(),
                        "nan".to_string(),
                    ] {
                        assert_eq!(error(&[name, &outside]), format!("{name} {complaint}"));
                    }
                }
                Kind::OneOf(what, choices) => {
                    let message = error(&[name, "bogus"]);
                    assert!(
                        message.starts_with(&format!("unknown {what} \"bogus\" (")),
                        "{message}"
                    );
                    for (index, choice) in choices.iter().enumerate() {
                        assert_eq!(parse(&[name, choice]).unwrap().choice(name), index);
                    }
                }
            }
            assert_eq!(error(&[name]), format!("{name} needs a value"));
            let spaced = parse(&[name, &operand[0]]).unwrap();
            let sugared = parse(&[&format!("{name}={}", operand[0])]).unwrap();
            assert_eq!(spaced.opt::<String>(name), sugared.opt::<String>(name));
            assert_eq!(
                spaced.opt::<String>(name).as_deref(),
                Some(operand[0].as_str())
            );
        }
        let unknown = error(&["--no-such-flag"]);
        assert!(
            unknown.starts_with("unknown flag --no-such-flag\nusage: "),
            "{unknown}"
        );
        if let Some(first) = spec.flags.iter().find(|flag| flag.required) {
            let absent = spec.parse(&[]).expect_err("a required flag is absent");
            assert!(
                absent.starts_with(&format!("{} is required\nusage: ", first.name)),
                "{absent}"
            );
        }
    }
}
