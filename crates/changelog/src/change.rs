//! Change records.

/// Unique identifier of a change.
pub type ChangeId = u64;

/// Whether a change is a code commit or a configuration change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChangeKind {
    /// A code commit.
    Code,
    /// A configuration change.
    Config,
}

/// A code or configuration change, as root-cause analysis sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct Change {
    /// Unique id.
    pub id: ChangeId,
    /// Code or config.
    pub kind: ChangeKind,
    /// Service the change was deployed to.
    pub service: String,
    /// When the change reached production (simulator seconds).
    pub deploy_time: u64,
    /// Fully qualified names of subroutines the change modifies (empty for
    /// pure config changes).
    pub modified_subroutines: Vec<String>,
    /// One-line title.
    pub title: String,
    /// Longer description.
    pub summary: String,
    /// Touched file names.
    pub files: Vec<String>,
    /// Author handle.
    pub author: String,
}

impl Change {
    /// Whether the change modifies the named subroutine.
    pub fn modifies(&self, subroutine: &str) -> bool {
        self.modified_subroutines.iter().any(|s| s == subroutine)
    }

    /// All text fields concatenated, for text-similarity features (§5.6).
    pub fn full_text(&self) -> String {
        let mut t = String::with_capacity(
            self.title.len()
                + self.summary.len()
                + self.files.iter().map(String::len).sum::<usize>()
                + 16,
        );
        t.push_str(&self.title);
        t.push(' ');
        t.push_str(&self.summary);
        for f in &self.files {
            t.push(' ');
            t.push_str(f);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn change() -> Change {
        Change {
            id: 1,
            kind: ChangeKind::Code,
            service: "svc".into(),
            deploy_time: 100,
            modified_subroutines: vec!["Foo::bar".into()],
            title: "Loosen constraints for foo".into(),
            summary: "Allows wider input ranges".into(),
            files: vec!["foo.cpp".into()],
            author: "dev1".into(),
        }
    }

    #[test]
    fn modifies_matches_exact_name() {
        let c = change();
        assert!(c.modifies("Foo::bar"));
        assert!(!c.modifies("Foo::baz"));
    }

    #[test]
    fn full_text_includes_all_fields() {
        let t = change().full_text();
        assert!(t.contains("Loosen"));
        assert!(t.contains("wider"));
        assert!(t.contains("foo.cpp"));
    }
}
