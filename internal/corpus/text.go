package corpus

import (
	"fmt"
	"math/rand"
	"strings"
)

// NaturalText generates a paragraph of natural-language prose, the "Pile"
// stand-in. Sentences come from a small template grammar biased toward the
// technical register of the real Pile.
func NaturalText(r *rand.Rand) string {
	v := &vocab{r: r}
	n := 3 + r.Intn(6)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(sentence(v))
	}
	sb.WriteByte('\n')
	return sb.String()
}

var sentenceSubjects = []string{
	"The system", "Our team", "The deployment process", "This service",
	"The operator", "A scheduled job", "The monitoring stack", "The database",
	"Each node", "The configuration", "The release pipeline", "An administrator",
}

var sentenceVerbs = []string{
	"manages", "updates", "monitors", "restarts", "provisions", "validates",
	"deploys", "configures", "archives", "replicates", "schedules", "audits",
}

var sentenceObjects = []string{
	"the web servers", "incoming requests", "the package repositories",
	"user accounts", "log files", "network interfaces", "storage volumes",
	"the certificate store", "backup snapshots", "container images",
	"firewall rules", "system services",
}

var sentenceTails = []string{
	"every night", "on demand", "across the cluster", "without downtime",
	"before each release", "in the staging environment", "automatically",
	"when the load increases", "under supervision", "for compliance reasons",
}

func sentence(v *vocab) string {
	s := fmt.Sprintf("%s %s %s %s.", v.pick(sentenceSubjects), v.pick(sentenceVerbs),
		v.pick(sentenceObjects), v.pick(sentenceTails))
	return s
}

// Language identifies a source-code flavour for the BigQuery stand-in.
type Language int

// The six languages of the CodeGen BigQuery corpus.
const (
	LangC Language = iota
	LangCpp
	LangGo
	LangJava
	LangJavaScript
	LangPython
)

var langNames = map[Language]string{
	LangC: "c", LangCpp: "cpp", LangGo: "go", LangJava: "java",
	LangJavaScript: "javascript", LangPython: "python",
}

// Name returns the lowercase language name.
func (l Language) Name() string { return langNames[l] }

var funcNames = []string{
	"parse_config", "send_request", "load_data", "process_items",
	"validate_input", "connect_db", "format_output", "retry_call",
	"read_file", "compute_hash", "merge_results", "init_logger",
}

var varIdents = []string{"result", "data", "items", "count", "value", "buf", "conf", "resp"}

// Code generates a small source snippet in the given language.
func Code(r *rand.Rand, lang Language) string {
	v := &vocab{r: r}
	fn := v.pick(funcNames)
	a, b := v.pick(varIdents), v.pick(varIdents)
	n := r.Intn(90) + 10
	switch lang {
	case LangPython:
		return fmt.Sprintf(`def %s(%s):
    """Process %s and return the result."""
    %s = []
    for item in %s:
        if item is not None:
            %s.append(item * %d)
    return %s
`, fn, a, a, b, a, b, n, b)
	case LangGo:
		return fmt.Sprintf(`// %s processes %s and returns the result.
func %s(%s []int) []int {
	var %s []int
	for _, item := range %s {
		if item > %d {
			%s = append(%s, item)
		}
	}
	return %s
}
`, fn, a, fn, a, b, a, n, b, b, b)
	case LangJava:
		return fmt.Sprintf(`public class Processor {
    public int %s(int[] %s) {
        int %s = 0;
        for (int item : %s) {
            %s += item %% %d;
        }
        return %s;
    }
}
`, fn, a, b, a, b, n, b)
	case LangJavaScript:
		return fmt.Sprintf(`function %s(%s) {
  const %s = %s.filter((item) => item > %d);
  return %s.map((item) => item * 2);
}
module.exports = { %s };
`, fn, a, b, a, n, b, fn)
	case LangCpp:
		return fmt.Sprintf(`#include <vector>
std::vector<int> %s(const std::vector<int>& %s) {
    std::vector<int> %s;
    for (auto item : %s) {
        if (item > %d) %s.push_back(item);
    }
    return %s;
}
`, fn, a, b, a, n, b, b)
	default: // C
		return fmt.Sprintf(`int %s(const int *%s, int len) {
    int %s = 0;
    for (int i = 0; i < len; i++) {
        if (%s[i] > %d) %s++;
    }
    return %s;
}
`, fn, a, b, a, n, b, b)
	}
}
