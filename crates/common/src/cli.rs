//! Argument-vector helpers shared by the command-line tools (`lad-trace`,
//! `lad-serve`, `lad-client`).
//!
//! Each helper removes what it recognises from the argument list, so a
//! command takes its flags first and then calls [`no_leftovers`] to reject
//! whatever is left.

use std::str::FromStr;

/// Pulls the value of `--flag value` out of `args`, removing both tokens.
///
/// # Errors
///
/// `flag` is the last argument, with no value after it.
pub fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(index) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if index + 1 >= args.len() {
        return Err(format!("{flag} requires a value"));
    }
    let value = args.remove(index + 1);
    args.remove(index);
    Ok(Some(value))
}

/// Pulls a bare `--flag` out of `args`, reporting whether it was present.
pub fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(index) => {
            args.remove(index);
            true
        }
        None => false,
    }
}

/// Parses the value of the flag named `what`.
///
/// # Errors
///
/// `value` does not parse as a `T`.
pub fn parse_number<T: FromStr>(value: &str, what: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{what} must be a number, got {value:?}"))
}

/// Succeeds when every argument was consumed.
///
/// # Errors
///
/// Names the first argument left over, followed by `usage`.
pub fn no_leftovers(args: &[String], usage: &str) -> Result<(), String> {
    match args.first() {
        Some(extra) => Err(format!("unexpected argument {extra:?}\n\n{usage}")),
        None => Ok(()),
    }
}
