package corpus

import (
	"fmt"
	"math/rand"
)

// Kind classifies the content of one generated file.
type Kind int

const (
	// AnsibleTasks is a role-style task list file.
	AnsibleTasks Kind = iota
	// AnsiblePlaybook is a playbook file.
	AnsiblePlaybook
	// GenericYAML is non-Ansible YAML.
	GenericYAML
	// NaturalTextKind is natural-language prose.
	NaturalTextKind
	// SourceCode is a source snippet in one of six languages.
	SourceCode
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case AnsibleTasks:
		return "ansible-tasks"
	case AnsiblePlaybook:
		return "ansible-playbook"
	case GenericYAML:
		return "generic-yaml"
	case NaturalTextKind:
		return "natural-text"
	case SourceCode:
		return "source-code"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// File is one generated corpus file with its crawl metadata.
type File struct {
	// Source names the simulated origin: galaxy, gitlab, github+gbq, pile,
	// bigquery, bigpython.
	Source string
	// Path is a synthetic repository-relative path.
	Path string
	// Kind classifies the content.
	Kind Kind
	// Text is the file content.
	Text string
}

// IsAnsible reports whether the file holds Ansible-YAML.
func (f File) IsAnsible() bool { return f.Kind == AnsibleTasks || f.Kind == AnsiblePlaybook }

// dupRate is the fraction of crawled files that are exact duplicates of an
// earlier file, exercising the pipeline's dedup stage (the real crawl
// contains heavy duplication; a low rate keeps generation cheap).
const dupRate = 0.04

// ansibleFiles generates n Ansible files in the given style.
func ansibleFiles(r *rand.Rand, source string, n int, st Style, pbRatio, dup float64) []File {
	files := make([]File, 0, n)
	for i := 0; i < n; i++ {
		if dup > 0 && len(files) > 4 && r.Float64() < dup {
			// Exact duplicate of an earlier file under a new path.
			orig := files[r.Intn(len(files))]
			files = append(files, File{Source: source, Path: dupPath(orig.Path, i), Kind: orig.Kind, Text: orig.Text})
			continue
		}
		text, isPB := AnsibleFile(r, st, pbRatio)
		kind, path := AnsibleTasks, fmt.Sprintf("roles/role%03d/tasks/main.yml", i)
		if isPB {
			kind, path = AnsiblePlaybook, fmt.Sprintf("playbooks/site%03d.yml", i)
		}
		files = append(files, File{Source: source, Path: path, Kind: kind, Text: text})
	}
	return files
}

func dupPath(p string, i int) string { return fmt.Sprintf("mirror%03d/%s", i, p) }

// Galaxy generates the fine-tuning corpus: vetted, standardised Ansible
// files in the Galaxy style (FQCN module names, no legacy forms). Roughly a
// quarter of the files come from complete roles — tasks plus the handlers,
// defaults and meta files the extraction stage must filter out, as the
// paper describes of real Galaxy content.
func Galaxy(seed int64, n int) []File {
	r := rand.New(rand.NewSource(seed))
	roleFiles := GalaxyRoles(seed+1, n/10)
	if len(roleFiles) > n {
		roleFiles = roleFiles[:n]
	}
	rest := ansibleFiles(r, "galaxy", n-len(roleFiles), GalaxyStyle, 0.2, dupRate)
	return append(roleFiles, rest...)
}

// GitLabAnsible generates the GitLab pre-training slice: crawl-style
// Ansible.
func GitLabAnsible(seed int64, n int) []File {
	r := rand.New(rand.NewSource(seed))
	return ansibleFiles(r, "gitlab", n, CrawlStyle, 0.2, dupRate)
}

// GitHubGBQAnsible generates the GitHub+BigQuery Ansible pre-training slice.
func GitHubGBQAnsible(seed int64, n int) []File {
	r := rand.New(rand.NewSource(seed))
	return ansibleFiles(r, "github+gbq", n, CrawlStyle, 0.2, dupRate)
}

// GitHubGBQGeneric generates the GitHub+BigQuery generic-YAML slice.
func GitHubGBQGeneric(seed int64, n int) []File {
	r := rand.New(rand.NewSource(seed))
	files := make([]File, 0, n)
	for i := 0; i < n; i++ {
		files = append(files, File{
			Source: "github+gbq",
			Path:   fmt.Sprintf("configs/cfg%04d.yaml", i),
			Kind:   GenericYAML,
			Text:   GenYAML(r),
		})
	}
	return files
}

// PileSim generates the natural-language-dominated pre-training corpus that
// stands in for the Pile: mostly prose, with the small YAML admixture the
// paper reports (the Pile contains ~25K Ansible and ~600K generic YAML
// files among hundreds of millions of documents).
func PileSim(seed int64, n int) []File {
	r := rand.New(rand.NewSource(seed))
	files := make([]File, 0, n)
	for i := 0; i < n; i++ {
		roll := r.Float64()
		var f File
		switch {
		case roll < 0.90:
			f = File{Source: "pile", Path: fmt.Sprintf("text/doc%05d.txt", i), Kind: NaturalTextKind, Text: NaturalText(r)}
		case roll < 0.97:
			f = File{Source: "pile", Path: fmt.Sprintf("text/cfg%05d.yaml", i), Kind: GenericYAML, Text: GenYAML(r)}
		default:
			text, isPB := AnsibleFile(r, CrawlStyle, 0.2)
			kind := AnsibleTasks
			if isPB {
				kind = AnsiblePlaybook
			}
			f = File{Source: "pile", Path: fmt.Sprintf("text/ans%05d.yml", i), Kind: kind, Text: text}
		}
		files = append(files, f)
	}
	return files
}

// BigQuerySim generates the multi-language code corpus standing in for the
// BigQuery slice of CodeGen-Multi's training data: mostly source code, with
// the structured-config admixture real code repositories carry.
func BigQuerySim(seed int64, n int) []File {
	r := rand.New(rand.NewSource(seed))
	files := make([]File, 0, n)
	for i := 0; i < n; i++ {
		roll := r.Float64()
		var f File
		switch {
		case roll < 0.80:
			lang := Language(r.Intn(6))
			f = File{Source: "bigquery", Path: fmt.Sprintf("src/f%05d.%s", i, lang.Name()), Kind: SourceCode, Text: Code(r, lang)}
		case roll < 0.95:
			f = File{Source: "bigquery", Path: fmt.Sprintf("src/cfg%05d.yaml", i), Kind: GenericYAML, Text: GenYAML(r)}
		default:
			text, isPB := AnsibleFile(r, CrawlStyle, 0.2)
			kind := AnsibleTasks
			if isPB {
				kind = AnsiblePlaybook
			}
			f = File{Source: "bigquery", Path: fmt.Sprintf("src/ans%05d.yml", i), Kind: kind, Text: text}
		}
		files = append(files, f)
	}
	return files
}

// BigPythonSim generates the Python-only corpus standing in for BigPython.
func BigPythonSim(seed int64, n int) []File {
	r := rand.New(rand.NewSource(seed))
	files := make([]File, 0, n)
	for i := 0; i < n; i++ {
		files = append(files, File{
			Source: "bigpython",
			Path:   fmt.Sprintf("py/f%05d.py", i),
			Kind:   SourceCode,
			Text:   Code(r, LangPython),
		})
	}
	return files
}

// SourceCounts mirrors Table 1 of the paper: file counts per data source at
// the reproduction's scale factor.
type SourceCounts struct {
	Galaxy        int // Ansible, fine-tuning
	GitLab        int // Ansible, pre-training
	GitHubAnsible int // Ansible, pre-training
	GitHubGeneric int // generic YAML, pre-training
}

// ScaledCounts returns the paper's Table 1 file counts divided by factor
// (e.g. factor 100 turns 112K Galaxy files into 1120).
func ScaledCounts(factor int) SourceCounts {
	if factor < 1 {
		factor = 1
	}
	return SourceCounts{
		Galaxy:        112_000 / factor,
		GitLab:        64_000 / factor,
		GitHubAnsible: 1_100_000 / factor,
		GitHubGeneric: 2_200_000 / factor,
	}
}
