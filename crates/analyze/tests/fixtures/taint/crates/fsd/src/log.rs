//! Decode-coverage fixture: `LogMeta.oldest_offset` is decoded from disk
//! but never range-checked anywhere in the crate (red), while every
//! `PageTarget` field is covered by its validator (green).

pub struct FsdLayout {
    pub nt_pages: u32,
}

pub struct LogMeta {
    pub oldest_offset: u32,
}

pub enum PageTarget {
    NtSector { page: u32, sector: u32 },
    Leader { addr: u32 },
}

impl PageTarget {
    pub fn validate(&self, nt_pages: u32, total: u32) -> Result<(), String> {
        let ok = match self {
            Self::NtSector { page, sector } => *page < nt_pages && *sector < nt_pages,
            Self::Leader { addr } => *addr < total,
        };
        if ok {
            Ok(())
        } else {
            Err("log record targets an impossible sector".into())
        }
    }
}
