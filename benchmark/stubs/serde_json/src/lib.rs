//! Stand-in for `serde_json`: `to_string` and `from_str` exist and always
//! fail. The benchmark never exports or imports a `ModelArtifact`, the only
//! user of JSON in the crates it links.

use std::fmt;

#[derive(Debug)]
pub struct Error;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("serde_json is stubbed out in the benchmark build")
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

pub fn to_string<T: ?Sized>(_value: &T) -> Result<String> {
    Err(Error)
}

pub fn from_str<T>(_json: &str) -> Result<T> {
    Err(Error)
}
