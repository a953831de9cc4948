//! The lint catalog and the [`Finding`] record.

use std::fmt;

/// Every lint the analyzer can emit. See the crate-level docs for the
/// full catalog with rationale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lint {
    /// A blocking lock acquired while another guard is already live.
    NestedLock,
    /// A lock held across a call into `InferenceSession::step` or the
    /// engine forward paths.
    LockAcrossStep,
    /// Heap allocation inside a `// analyzer: hot-path` function.
    HotPathAlloc,
    /// Blocking primitive inside a `// analyzer: hot-path` function.
    HotPathBlock,
    /// Panic path inside a `// analyzer: hot-path` function.
    HotPathPanic,
    /// Malformed `// analyzer:` directive (unknown directive or lint,
    /// missing reason, dangling annotation). Not suppressible.
    InvalidDirective,
}

impl Lint {
    /// Every lint, in catalog order.
    pub const ALL: [Lint; 6] = [
        Lint::NestedLock,
        Lint::LockAcrossStep,
        Lint::HotPathAlloc,
        Lint::HotPathBlock,
        Lint::HotPathPanic,
        Lint::InvalidDirective,
    ];

    /// The stable kebab-case id used in `allow(...)` and in findings.
    pub fn id(self) -> &'static str {
        match self {
            Lint::NestedLock => "nested-lock",
            Lint::LockAcrossStep => "lock-across-step",
            Lint::HotPathAlloc => "hot-path-alloc",
            Lint::HotPathBlock => "hot-path-block",
            Lint::HotPathPanic => "hot-path-panic",
            Lint::InvalidDirective => "invalid-directive",
        }
    }

    /// Parse a lint id as written in an `allow(...)` directive.
    pub fn from_id(id: &str) -> Option<Lint> {
        Lint::ALL.into_iter().find(|l| l.id() == id)
    }

    /// True for lints that may never be suppressed.
    pub fn unsuppressible(self) -> bool {
        self == Lint::InvalidDirective
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One analyzer finding, anchored to a file/line/function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub lint: Lint,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// Qualified function name (`Type::method` or `free_fn`), or
    /// `<module>` for file-level findings.
    pub function: String,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {} (in {})",
            self.file, self.line, self.lint, self.message, self.function
        )
    }
}
